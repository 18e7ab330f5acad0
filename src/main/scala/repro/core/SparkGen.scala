package repro.core

import org.apache.spark.sql.{AnalysisException, Column, DataFrame, SparkSession, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import TondIR._
import RulePlan.{Body, Plan}

/** TondIR → Catalyst translation: every rule's [[RulePlan]] is printed as
  * Spark DataFrame operations, i.e. a Catalyst logical plan — the
  * Spark-native execution path of this reproduction (no SQL text round-trip).
  *
  * Mapping: scans → equi-joins, outer ones left/right/full joins with their
  * ON terms; WHERE terms → `where`; group keys → `groupBy().agg()` with
  * HAVING terms as post-aggregation filters; semi/anti children →
  * `left_semi` / `left_anti` joins; VALUES scans → `createDataFrame`; UID()
  * → 0-based `row_number()` window; sort/limit → `orderBy`/`limit`.
  */
object SparkGen {

  /** Compile a program: `inputs` provides DataFrames for base relations. */
  def compile(p: Program, inputs: Map[String, DataFrame], cat: Catalog,
              spark: SparkSession): DataFrame = {
    var rels: Map[String, DataFrame] = inputs
    for (rule <- p.rules)
      rels = rels + (rule.head.rel -> compileRule(RulePlan(rule, p, cat), rels, spark))
    rels(p.result)
  }

  /** A plan column reference: a DataFrame column named `<alias>.<column>`. */
  private def ref(name: String): Column = col(s"`$name`")

  private def and(cs: Seq[Column]): Column = cs.reduceOption(_ && _).getOrElse(lit(true))

  private def equal(e: (Term, Term)): Column = render(e._1) === render(e._2)

  /** Print one rule's plan against already-materialized relation DataFrames.
    * Spark analyses each operation as it is built, so an error names the rule. */
  private def compileRule(plan: Plan, rels: Map[String, DataFrame], spark: SparkSession): DataFrame = try {
    val df = plan.body.where.foldLeft(body(plan.body, rels, spark))((d, t) => d.where(render(t)))
    val projected =
      if (!plan.aggregate) df.select(plan.cols.map { case (n, t, _) => render(t).as(n) }: _*)
      else {
        // Aggregate columns and HAVING terms are computed per group, group
        // keys come out under `__k_i`; then HAVING filters and the head order.
        val having = plan.having.indices.map(i => s"__having_$i")
        val aggs = plan.cols.collect { case (n, t, None) => render(t).as(n) } ++
          plan.having.zip(having).map { case (t, n) => render(t).as(n) }
        val grouped = df.groupBy(plan.group.zipWithIndex.map { case (g, i) => render(g).as(s"__k_$i") }: _*)
        val agged =
          if (aggs.nonEmpty) grouped.agg(aggs.head, aggs.tail: _*)
          else grouped.agg(count(lit(1)).as("__cnt")).drop("__cnt")
        agged.where(and(having.map(col)))
          .select(plan.cols.map { case (n, _, k) => k.fold(col(n))(i => col(s"__k_$i")).as(n) }: _*)
      }
    val h = plan.head
    val distincted = if (h.distinct) projected.distinct() else projected
    val sorted =
      if (h.sort.nonEmpty) distincted.orderBy(h.sort.map { case (c, asc) => if (asc) col(c).asc else col(c).desc }: _*)
      else distincted
    h.limit.map(n => sorted.limit(n.toInt)).getOrElse(sorted)
  } catch {
    case e: AnalysisException =>
      throw new IllegalArgumentException(s"sparkgen: ${e.getMessage} in ${show(plan.rule)}", e)
  }

  /** The body's scans, each column renamed to its plan reference, joined in
    * order: equalities and ON terms become join conditions. Then each semi/anti
    * child is a `left_semi` / `left_anti` join whose condition holds the
    * child's correlation and WHERE terms, so they may read this body's columns. */
  private def body(b: Body, rels: Map[String, DataFrame], spark: SparkSession): DataFrame = {
    val dfs = b.scans.map { s =>
      val src = s.source match {
        case Left(rel) => rels.getOrElse(rel, sys.error(s"sparkgen: unknown relation $rel"))
        case Right(rows) =>
          val schema = StructType(rows.head.zipWithIndex.map { case (v, k) =>
            StructField(s"c$k", litType(v.v), nullable = true) })
          spark.createDataFrame(spark.sparkContext.parallelize(rows.map(r => Row.fromSeq(r.map(_.v))), 1), schema)
      }
      src.toDF(s.refs: _*)
    }
    val joined = b.scans.zip(dfs).tail.foldLeft(dfs.head.where(and(b.scans.head.eqs.map(equal)))) {
      case (d, (s, right)) =>
        d.join(right, and(s.eqs.map(equal) ++ s.outer.map(o => render(o._2))), s.outer.fold("inner")(_._1))
    }
    b.semis.foldLeft(joined) { (d, s) =>
      val cond = and(s.correlation.map(equal) ++ s.body.where.map(render))
      d.join(body(s.body, rels, spark), cond, if (s.negated) "left_anti" else "left_semi")
    }
  }

  private def litType(v: Any): DataType = v match {
    case _: Int | _: Long => LongType
    case _: Double        => DoubleType
    case _: String        => StringType
    case _: Boolean       => BooleanType
    case _: java.time.LocalDate => DateType
    case _                => StringType
  }

  /** Render a plan term as a Catalyst Column. */
  def render(t: Term): Column = t match {
    case TVar(name) => ref(name)
    case TConst(d: java.time.LocalDate) => lit(java.sql.Date.valueOf(d))
    case TConst(i: Int) => lit(i.toLong)
    case TConst(v) => lit(v)
    case TAgg("count", TConst(_), false) => count(lit(1))
    case TAgg("count", a, true)  => countDistinct(render(a))
    case TAgg("count", a, false) => count(render(a))
    case TAgg("sum", a, _)   => sum(render(a))
    case TAgg("min", a, _)   => min(render(a))
    case TAgg("max", a, _)   => max(render(a))
    case TAgg("avg", a, _)   => avg(render(a))
    case TAgg(f, _, _)       => sys.error(s"sparkgen: agg $f")
    case TIf(c, a, b)  => when(render(c), render(a)).otherwise(render(b))
    case TBin("in", l, TExt("list", vals)) =>
      render(l).isin(vals.map { case TConst(v) => v; case x => sys.error(s"in-list: $x") }: _*)
    case TBin(op, l, r) =>
      val (a, b) = (render(l), render(r))
      op match {
        case "+" => a + b;  case "-" => a - b; case "*" => a * b; case "/" => a / b
        case "%" => a % b
        case "=" => a === b; case "<>" => a =!= b
        case "<" => a < b; case "<=" => a <= b; case ">" => a > b; case ">=" => a >= b
        case "and" => a && b; case "or" => a || b
        case "like"    => r match { case TConst(s: String) => a.like(s); case _ => sys.error("like needs const") }
        case "notlike" => r match { case TConst(s: String) => !a.like(s); case _ => sys.error("like needs const") }
        case x => sys.error(s"sparkgen: op $x")
      }
    case TExt("uid", args) =>
      val w = if (args.isEmpty) Window.orderBy(monotonically_increasing_id())
              else Window.orderBy(args.map(render(_)): _*)
      row_number().over(w).cast(LongType) - 1L
    case TExt("year", Seq(x))   => year(render(x)).cast(LongType)
    case TExt("substr", Seq(x, f, l)) => substring(render(x), asInt(f), asInt(l))
    case TExt("round", Seq(x, n))     => round(render(x), asInt(n))
    case TExt("inline", Seq(x)) => render(x)
    case TExt("neg", Seq(x))    => -render(x)
    case TExt("length", Seq(x)) => length(render(x)).cast(LongType)
    case TExt(f, _) => sys.error(s"sparkgen: unknown external $f")
  }

  /** A function's integer argument (substr bounds, round digits). */
  private def asInt(t: Term): Int = t match {
    case TConst(i: Int) => i; case TConst(i: Long) => i.toInt
    case other => sys.error(s"sparkgen: expected an integer constant, got ${TondIR.show(other)}")
  }
}
