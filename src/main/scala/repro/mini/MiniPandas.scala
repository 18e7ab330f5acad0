package repro.mini

import repro.frontend.Dsl._
import repro.tensor.Einsum

/** Eager operator-at-a-time interpreter over local collections — the
  * reproduction's "Python (Pandas/NumPy)" competitor.
  *
  * Substitution rationale (DESIGN.md): the container cannot run CPython, but
  * what makes the Pandas/NumPy baseline slow in the paper is its execution
  * model, not the language: every API call materializes a full intermediate,
  * nothing fuses across calls, and everything is single-threaded. This
  * interpreter reproduces exactly that model over the same DSL DAG that
  * PyTond compiles, so the baseline and the compiled paths run identical
  * logical workloads.
  */
object MiniPandas {

  /** A materialized DataFrame: column names + row-major values. */
  final case class Table(schema: Vector[String], rows: Vector[Array[Any]]) {
    def idx(c: String): Int = {
      val i = schema.indexOf(c); require(i >= 0, s"mini: no column $c in $schema"); i
    }
  }

  // ------------------------------------------------------------ value utils
  private def num(v: Any): Double = v match {
    case null                  => 0.0
    case d: Double             => d
    case l: Long               => l.toDouble
    case i: Int                => i.toDouble
    case f: Float              => f.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case d: java.sql.Date      => d.toLocalDate.toEpochDay.toDouble
    case d: java.time.LocalDate => d.toEpochDay.toDouble
    case b: Boolean            => if (b) 1.0 else 0.0
    case s: String             => s.toDouble
  }

  private def isNum(v: Any): Boolean = v match {
    case _: Double | _: Long | _: Int | _: Float | _: java.math.BigDecimal |
         _: java.sql.Date | _: java.time.LocalDate => true
    case _ => false
  }

  private def cmp(a: Any, b: Any): Int =
    if (isNum(a) && isNum(b)) java.lang.Double.compare(num(a), num(b))
    else String.valueOf(a).compareTo(String.valueOf(b))

  private def keyOf(v: Any): Any = v match {
    case i: Int => i.toLong
    case d: java.sql.Date => d.toLocalDate
    case x => x
  }

  private def likeRegex(pat: String): java.util.regex.Pattern =
    java.util.regex.Pattern.compile(
      pat.flatMap {
        case '%' => ".*"
        case '_' => "."
        case c if "\\.[]{}()*+-?^$|".contains(c) => "\\" + c
        case c => c.toString
      },
      java.util.regex.Pattern.DOTALL)

  // --------------------------------------------------------- expression eval
  def eval(e: PExpr, schema: Vector[String], row: Array[Any]): Any = e match {
    case PCol(n)  => row(schema.indexOf(n))
    case PLit(v: Int) => v.toLong
    case PLit(v)  => v
    case PIf(c, t, f) => if (truthy(eval(c, schema, row))) eval(t, schema, row) else eval(f, schema, row)
    case PLike(x, p, neg) =>
      val m = likeRegex(p).matcher(String.valueOf(eval(x, schema, row))).matches()
      if (neg) !m else m
    case PIn(x, vals) =>
      val v = keyOf(eval(x, schema, row))
      vals.map(keyOf).contains(v)
    case PFun("year", Vector(a)) => eval(a, schema, row) match {
      case d: java.sql.Date       => d.toLocalDate.getYear.toLong
      case d: java.time.LocalDate => d.getYear.toLong
      case x                      => sys.error(s"year($x)")
    }
    case PFun("substr", Vector(a, PLit(f: Int), PLit(l: Int))) =>
      val s = String.valueOf(eval(a, schema, row)); s.substring(f - 1, math.min(s.length, f - 1 + l))
    case PFun("round", Vector(a, PLit(n: Int))) =>
      BigDecimal(num(eval(a, schema, row))).setScale(n, BigDecimal.RoundingMode.HALF_UP).toDouble
    case PFun(fn, _) => sys.error(s"mini: fn $fn")
    case PBin(op, l, r) =>
      val (a, b) = (eval(l, schema, row), eval(r, schema, row))
      op match {
        case "+" => arith(a, b, _ + _); case "-" => arith(a, b, _ - _)
        case "*" => arith(a, b, _ * _); case "/" => num(a) / num(b)
        case "=" => equalish(a, b);     case "<>" => !equalish(a, b)
        case "<" => cmp2(a, b) < 0;     case "<=" => cmp2(a, b) <= 0
        case ">" => cmp2(a, b) > 0;     case ">=" => cmp2(a, b) >= 0
        case "and" => truthy(a) && truthy(b); case "or" => truthy(a) || truthy(b)
        case x => sys.error(s"mini: op $x")
      }
  }

  private def arith(a: Any, b: Any, f: (Double, Double) => Double): Any = (a, b) match {
    case (x: Long, y: Long) => f(x.toDouble, y.toDouble).toLong
    case _                  => f(num(a), num(b))
  }
  private def cmp2(a: Any, b: Any): Int =
    if (a == null || b == null) Int.MaxValue // null comparisons are never true
    else cmp(a, b)
  private def equalish(a: Any, b: Any): Boolean =
    if (a == null || b == null) false
    else if (isNum(a) && isNum(b)) num(a) == num(b)
    else String.valueOf(a) == String.valueOf(b)
  private def truthy(v: Any): Boolean = v match {
    case b: Boolean => b; case null => false; case x => num(x) != 0.0 }

  // ---------------------------------------------------------- op evaluation
  /** Evaluate a DSL DAG eagerly. Each node materializes its full result
    * (the Pandas execution model). */
  def run(df: Df, inputs: Map[String, Table]): Table = run(df.op, inputs)

  def run(root: POp, inputs: Map[String, Table]): Table = {
    val memo = scala.collection.mutable.HashMap[POp, Table]()

    def go(op: POp): Table = memo.getOrElseUpdate(op, op match {
      case Source(name, _) => inputs.getOrElse(name, sys.error(s"mini: no input $name"))

      case Filter(in, cond) =>
        val t = go(in)
        Table(t.schema, t.rows.filter(r => truthy(eval(cond, t.schema, r))))

      case SelectCols(in, cols) =>
        val t = go(in); val ix = cols.map(t.idx)
        Table(cols, t.rows.map(r => ix.map(r).toArray))

      case w @ WithCols(in, newCols) =>
        val t = go(in)
        val kept = t.schema.filterNot(newCols.map(_._1).contains)
        val keptIx = kept.map(t.idx)
        Table(w.schema, t.rows.map { r =>
          (keptIx.map(r) ++ newCols.map { case (_, e) => eval(e, t.schema, r) }).toArray })

      case Rename(in, m) =>
        val t = go(in); Table(t.schema.map(c => m.getOrElse(c, c)), t.rows)

      case mg @ Merge(l, r, how, leftOn, rightOn, _) =>
        val (lt, rt) = (go(l), go(r))
        val lIx = mg.leftOut.map { case (src, _) => lt.idx(src) }
        val rIx = mg.rightOut.map { case (src, _) => rt.idx(src) }
        val out = Vector.newBuilder[Array[Any]]
        how match {
          case "cross" =>
            for (a <- lt.rows; b <- rt.rows) out += (lIx.map(a) ++ rIx.map(b)).toArray
          case "inner" | "left" =>
            val lk = leftOn.map(lt.idx); val rk = rightOn.map(rt.idx)
            val index = rt.rows.groupBy(b => rk.map(i => keyOf(b(i))))
            for (a <- lt.rows) {
              val key = lk.map(i => keyOf(a(i)))
              index.get(key) match {
                case Some(matches) => matches.foreach(b => out += (lIx.map(a) ++ rIx.map(b)).toArray)
                case None if how == "left" => out += (lIx.map(a) ++ rIx.map(_ => null)).toArray
                case None => ()
              }
            }
          case other => sys.error(s"mini: merge how=$other")
        }
        Table(mg.schema, out.result())

      case ga @ GroupAgg(in, keys, aggs) =>
        val t = go(in); val kIx = keys.map(t.idx)
        val groups = scala.collection.mutable.LinkedHashMap[Vector[Any], Vector[Array[Any]]]()
        t.rows.foreach { r =>
          val k = kIx.map(i => keyOf(r(i)))
          groups(k) = groups.getOrElse(k, Vector.empty) :+ r
        }
        Table(ga.schema, groups.iterator.map { case (k, rs) =>
          (k ++ aggs.map(a => aggregate(a, t.schema, rs))).toArray }.toVector)

      case sa @ ScalarAgg(in, aggs) =>
        val t = go(in)
        Table(sa.schema, Vector(aggs.map(a => aggregate(a, t.schema, t.rows)).toArray))

      case SortLimit(in, by, asc, limit) =>
        val t = go(in); val ix = by.map(t.idx).zip(asc.padTo(by.size, true))
        val ord = new Ordering[Array[Any]] {
          def compare(a: Array[Any], b: Array[Any]): Int = {
            ix.foreach { case (i, up) =>
              val c = cmp(a(i), b(i)); if (c != 0) return if (up) c else -c }
            0
          }
        }
        val sorted = if (by.isEmpty) t.rows else t.rows.sorted(ord)
        Table(t.schema, limit.map(n => sorted.take(n.toInt)).getOrElse(sorted))

      case DistinctOp(in, cols) =>
        val t = go(in); val ix = cols.map(t.idx)
        val seen = scala.collection.mutable.LinkedHashSet[Vector[Any]]()
        t.rows.foreach(r => seen += ix.map(i => keyOf(r(i))))
        Table(cols, seen.iterator.map(_.toArray).toVector)

      case SemiJoin(l, r, on, neq, negated) =>
        val (lt, rt) = (go(l), go(r))
        val lk = on.map { case (lc, _) => lt.idx(lc) }
        val rk = on.map { case (_, rc) => rt.idx(rc) }
        val neqIx = neq.map { case (op, lc, rc) => (op, lt.idx(lc), rt.idx(rc)) }
        val index = rt.rows.groupBy(b => rk.map(i => keyOf(b(i))))
        val keep = lt.rows.filter { a =>
          val matches = index.getOrElse(lk.map(i => keyOf(a(i))), Vector.empty)
          val hit = matches.exists(b => neqIx.forall { case (op, li, ri) =>
            op match {
              case "<>" => !equalish(a(li), b(ri)); case "=" => equalish(a(li), b(ri))
              case "<" => cmp2(a(li), b(ri)) < 0;   case ">" => cmp2(a(li), b(ri)) > 0
              case "<=" => cmp2(a(li), b(ri)) <= 0; case ">=" => cmp2(a(li), b(ri)) >= 0
              case x => sys.error(s"mini semijoin op $x")
            }})
          if (negated) !hit else hit
        }
        Table(lt.schema, keep)

      case pv @ Pivot(in, index, columns, values, distinctVals) =>
        val t = go(in)
        val (iIx, cIx, vIx) = (t.idx(index), t.idx(columns), t.idx(values))
        val groups = scala.collection.mutable.LinkedHashMap[Any, Array[Double]]()
        val valPos = distinctVals.map(keyOf).zipWithIndex.toMap
        t.rows.foreach { r =>
          val acc = groups.getOrElseUpdate(keyOf(r(iIx)), Array.fill(distinctVals.size)(0.0))
          valPos.get(keyOf(r(cIx))).foreach(p => acc(p) += num(r(vIx)))
        }
        Table(pv.schema, groups.iterator.map { case (k, acc) =>
          (k +: acc.map(_.asInstanceOf[Any]).toVector).toArray }.toVector)

      case tm @ ToMatrix(in, cols) =>
        val t = go(in); val ix = cols.map(t.idx)
        // UID ordered by the selected columns, matching the compiled path.
        val sorted = t.rows.map(r => ix.map(i => num(r(i))).toArray)
          .sortBy(_.toVector)(Ordering.Implicits.seqOrdering[Vector, Double])
        Table(tm.schema, sorted.zipWithIndex.map { case (r, i) =>
          (i.toLong +: r.map(_.asInstanceOf[Any]).toVector).toArray })

      case aj @ AlignJoin(l, r) =>
        val (lt, rt) = (go(l), go(r))
        require(lt.rows.size == rt.rows.size, "alignWith: row counts differ")
        def ordered(t: Table): Vector[Array[Any]] =
          t.rows.sortBy(r => r.toVector.map(v => f"${num(v)}%024.6f").mkString("|"))
        Table(aj.schema, ordered(lt).zip(ordered(rt)).map { case (a, b) => a ++ b })

      case MatToDf(in, names) =>
        val t = go(in); Table("id" +: names, t.rows)

      case EinsumOp(spec, operands) =>
        val ops = operands.map(go)
        einsum(spec, ops)
    })

    go(root)
  }

  private def aggregate(a: AggSpec, schema: Vector[String], rows: Vector[Array[Any]]): Any = {
    a.fn match {
      case "count" if a.distinct =>
        rows.flatMap(r => Option(eval(a.arg, schema, r)).map(keyOf)).distinct.size.toLong
      case "count" => rows.count(r => eval(a.arg, schema, r) != null).toLong
      case "sum"   => rows.iterator.map(r => num(eval(a.arg, schema, r))).sum
      case "avg"   => if (rows.isEmpty) null else rows.iterator.map(r => num(eval(a.arg, schema, r))).sum / rows.size
      case "min"   => if (rows.isEmpty) null else rows.map(r => eval(a.arg, schema, r)).min(Ordering.fromLessThan[Any](cmp(_, _) < 0))
      case "max"   => if (rows.isEmpty) null else rows.map(r => eval(a.arg, schema, r)).max(Ordering.fromLessThan[Any](cmp(_, _) < 0))
      case f       => sys.error(s"mini: agg $f")
    }
  }

  // -------------------------------------------------------------- MiniNumPy
  /** Dense matrix from an array table `(id, c0..)`, ordered by id. */
  private def toDense(t: Table): Array[Array[Double]] =
    t.rows.sortBy(r => num(r(0))).map(r => r.drop(1).map(num)).toArray

  private def fromDense(m: Array[Array[Double]]): Table = {
    val n = if (m.isEmpty) 0 else m(0).length
    Table("id" +: (0 until n).map(i => s"c$i").toVector,
      m.zipWithIndex.map { case (r, i) => (i.toLong +: r.toVector.map(_.asInstanceOf[Any])).toArray }.toVector)
  }

  private def scalarTable(v: Double): Table = Table(Vector("c0"), Vector(Array(v)))

  /** Naive-loop einsum over dense arrays — the NumPy stand-in. */
  def einsum(spec: String, ops: Vector[Table]): Table = {
    Einsum.normalize(spec) match {
      case "i->" | "ij->" =>
        scalarTable(toDense(ops(0)).map(_.sum).sum)
      case "ij->i" =>
        fromDense(toDense(ops(0)).map(r => Array(r.sum)))
      case "ij->j" =>
        val m = toDense(ops(0)); val n = m(0).length
        fromDense((0 until n).map(j => Array(m.map(_(j)).sum)).toArray)
      case "ii->i" =>
        fromDense(toDense(ops(0)).zipWithIndex.map { case (r, i) => Array(if (i < r.length) r(i) else 0.0) })
      case "ij,ij->ij" | "i,i->i" =>
        val (a, b) = (toDense(ops(0)), toDense(ops(1)))
        fromDense(a.zip(b).map { case (x, y) => x.zip(y).map { case (p, q) => p * q } })
      case "i,i->" =>
        val (a, b) = (toDense(ops(0)), toDense(ops(1)))
        scalarTable(a.zip(b).map { case (x, y) => x(0) * y(0) }.sum)
      case "ij,ik->jk" =>
        val (a, b) = (toDense(ops(0)), toDense(ops(1)))
        val (n1, n2) = (a(0).length, b(0).length)
        val out = Array.fill(n1, n2)(0.0)
        var i = 0
        while (i < a.length) {
          var j = 0
          while (j < n1) { var k = 0; while (k < n2) { out(j)(k) += a(i)(j) * b(i)(k); k += 1 }; j += 1 }
          i += 1
        }
        fromDense(out)
      case "ij,j->i" =>
        val (a, v) = (toDense(ops(0)), toDense(ops(1)).map(_(0)))
        fromDense(a.map(r => Array(r.zip(v).map { case (x, y) => x * y }.sum)))
      case "ij,jk->ik" =>
        val (a, b) = (toDense(ops(0)), toDense(ops(1)))
        fromDense(a.map { r =>
          (0 until b(0).length).map(k => r.indices.map(j => r(j) * b(j)(k)).sum).toArray })
      case other => sys.error(s"mini einsum: $other")
    }
  }
}
