package repro.core

import TondIR._
import RulePlan.{Body, Scan}

/** TondIR → SQL code generation (§III-E).
  *
  * Each rule becomes a Common Table Expression; the final rule becomes the
  * top-level SELECT so its ORDER BY / LIMIT survive (CTEs do not preserve
  * order). This object only prints each rule's [[RulePlan]]: scans become an
  * explicit JOIN chain, semi/anti children (NOT) EXISTS subqueries, and UID()
  * a ROW_NUMBER window (0-based).
  *
  * Backend adaptation (§III-E) is confined to [[SqlDialect]]: the only
  * engine-visible differences we need are inline VALUES relations and
  * integer-division spelling.
  */
object SqlGen {

  sealed trait SqlDialect {
    def name: String
    /** Render an inline constant relation with the given alias and columns. */
    def valuesRel(rows: Vector[Vector[TConst]], alias: String, cols: Vector[String]): String
  }

  case object DuckDialect extends SqlDialect {
    val name = "duckdb"
    def valuesRel(rows: Vector[Vector[TConst]], alias: String, cols: Vector[String]): String =
      s"(VALUES ${rows.map(r => r.map(c => const(c.v)).mkString("(", ", ", ")")).mkString(", ")}) " +
        s"AS $alias(${cols.mkString(", ")})"
  }

  case object SparkDialect extends SqlDialect {
    val name = "spark"
    def valuesRel(rows: Vector[Vector[TConst]], alias: String, cols: Vector[String]): String =
      s"(SELECT * FROM VALUES ${rows.map(r => r.map(c => const(c.v)).mkString("(", ", ", ")")).mkString(", ")} " +
        s"AS inline_(${cols.mkString(", ")})) AS $alias"
  }

  private def const(v: Any): String = v match {
    case null                     => "NULL"
    case s: String                => "'" + s.replace("'", "''") + "'"
    case d: java.time.LocalDate   => s"DATE '$d'"
    case b: Boolean               => if (b) "TRUE" else "FALSE"
    case x                        => String.valueOf(x)
  }

  private val binOps = Map(
    "+" -> "+", "-" -> "-", "*" -> "*", "/" -> "/", "%" -> "%",
    "=" -> "=", "<>" -> "<>", "<" -> "<", "<=" -> "<=", ">" -> ">", ">=" -> ">=",
    "and" -> "AND", "or" -> "OR", "like" -> "LIKE", "notlike" -> "NOT LIKE")

  /** Render a plan term to SQL: variables are column references, and an
    * inlined assignment is parenthesized. */
  def term(t: Term): String = t match {
    case TVar(ref)     => ref
    case TConst(v)     => const(v)
    case TAgg("count", TConst(_), false) => "COUNT(*)"
    case TAgg(f, a, d) => s"${f.toUpperCase}(${if (d) "DISTINCT " else ""}${term(a)})"
    case TIf(c, a, b)  => s"CASE WHEN ${term(c)} THEN ${term(a)} ELSE ${term(b)} END"
    case TBin("in", l, TExt("list", vals)) => s"${term(l)} IN (${vals.map(term).mkString(", ")})"
    case TBin(op, l, r) => s"(${term(l)} ${binOps.getOrElse(op, sys.error(s"sqlgen: op $op"))} ${term(r)})"
    case TExt("inline", Seq(x)) => s"(${term(x)})"
    case TExt("uid", args) =>
      val ob = if (args.isEmpty) "(SELECT 1)" else args.map(term).mkString(", ")
      s"(ROW_NUMBER() OVER (ORDER BY $ob) - 1)"
    case TExt("year", Seq(x))         => s"YEAR(${term(x)})"
    case TExt("substr", Seq(x, f, l)) => s"SUBSTR(${term(x)}, ${term(f)}, ${term(l)})"
    case TExt("round", Seq(x, n))     => s"ROUND(${term(x)}, ${term(n)})"
    case TExt("neg", Seq(x))          => s"(-${term(x)})"
    case TExt("length", Seq(x))       => s"LENGTH(${term(x)})"
    case TExt(f, _)                   => sys.error(s"sqlgen: unknown external $f")
  }

  private def equal(e: (Term, Term)): String = s"${term(e._1)} = ${term(e._2)}"

  private def source(s: Scan, d: SqlDialect): String =
    s.source.fold(rel => s"$rel AS ${s.alias}", rows => d.valuesRel(rows, s.alias, s.cols))

  /** FROM items and the equalities they leave to WHERE. The rule's own body
    * is a JOIN chain, one item per line; an EXISTS body is a comma list with
    * its equalities in WHERE, unless it holds an outer join. */
  private def from(b: Body, d: SqlDialect, top: Boolean): (String, Vector[String]) =
    if (!top && b.scans.forall(_.outer.isEmpty))
      (b.scans.map(source(_, d)).mkString(", "), b.scans.flatMap(_.eqs).map(equal))
    else {
      val joins = b.scans.tail.map { s =>
        val on = s.eqs.map(equal) ++ s.outer.map(o => term(o._2))
        val kw = s.outer.fold(if (on.isEmpty) "CROSS JOIN" else "JOIN")(_._1.toUpperCase + " JOIN")
        s"$kw ${source(s, d)}${if (on.isEmpty) "" else " ON " + on.mkString(" AND ")}"
      }
      ((source(b.scans.head, d) +: joins).mkString(if (top) "\n  " else " "), b.scans.head.eqs.map(equal))
    }

  /** WHERE terms, then (NOT) EXISTS subqueries. */
  private def filters(b: Body, d: SqlDialect): Vector[String] = b.where.map(term) ++ b.semis.map { s =>
    val (fromSql, eqs) = from(s.body, d, top = false)
    val conds = eqs ++ s.correlation.map(equal) ++ filters(s.body, d)
    val where = if (conds.isEmpty) "" else conds.mkString(" WHERE ", " AND ", "")
    s"${if (s.negated) "NOT " else ""}EXISTS (SELECT 1 FROM $fromSql$where)"
  }

  def ruleSql(rule: Rule, p: Program, cat: Catalog, d: SqlDialect): String = {
    val plan = RulePlan(rule, p, cat)
    val h = plan.head
    val (fromSql, eqs) = from(plan.body, d, top = true)
    val where = eqs ++ filters(plan.body, d)
    val q = new StringBuilder
    q ++= s"SELECT ${if (h.distinct) "DISTINCT " else ""}${plan.cols.map { case (n, t, _) => s"${term(t)} AS $n" }.mkString(", ")}"
    q ++= s"\nFROM $fromSql"
    if (where.nonEmpty) q ++= s"\nWHERE ${where.mkString("\n  AND ")}"
    if (plan.group.nonEmpty) q ++= s"\nGROUP BY ${plan.group.map(term).mkString(", ")}"
    if (plan.having.nonEmpty) q ++= s"\nHAVING ${plan.having.map(term).mkString(" AND ")}"
    if (h.sort.nonEmpty)
      q ++= s"\nORDER BY ${h.sort.map { case (c, asc) => s"$c${if (asc) "" else " DESC"}" }.mkString(", ")}"
    h.limit.foreach(n => q ++= s"\nLIMIT $n")
    q.toString
  }

  /** Full program → one SQL statement: CTE chain + final SELECT. */
  def programSql(p: Program, cat: Catalog, d: SqlDialect): String = {
    require(p.rules.nonEmpty, "empty program")
    val last = p.rules.last
    require(last.head.rel == p.result,
      s"result ${p.result} must be the last rule (got ${last.head.rel})")
    val ctes = p.rules.init.map { r =>
      s"${r.head.rel}(${r.head.colNames.mkString(", ")}) AS (\n${indent(ruleSql(r, p, cat, d))}\n)"
    }
    val finalSql = ruleSql(last, p, cat, d)
    if (ctes.isEmpty) finalSql else s"WITH ${ctes.mkString(",\n")}\n$finalSql"
  }

  private def indent(s: String): String = s.linesIterator.map("  " + _).mkString("\n")
}
