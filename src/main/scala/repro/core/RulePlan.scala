package repro.core

import scala.collection.mutable
import TondIR._

/** What one TondIR rule means, worked out once for every code generator
  * (§III-E): a normalized plan in which variables have become column
  * references and assignments are inlined. [[SqlGen]] prints a plan as SQL
  * text, [[SparkGen]] as DataFrame operations.
  *
  * Scans are aliased `t1..tN` in rule order: a body's scans first, then its
  * `exists` children, depth-first in body order. A column reference is
  * `TVar("<alias>.<column>")`; an inlined assignment is
  * `TExt("inline", Seq(t))`. Whatever the plan cannot express raises an
  * error that shows the rule.
  */
object RulePlan {

  /** One FROM item: relation `rel` (Left) or VALUES rows (Right) with its
    * column names, the equalities that bind it to earlier columns of its
    * body and, on the right side of an outer join, the kind and ON term. */
  final case class Scan(alias: String, source: Either[String, Vector[Vector[TConst]]],
                        cols: Vector[String], eqs: Vector[(Term, Term)],
                        outer: Option[(String, Term)]) {
    def refs: Vector[String] = cols.map(c => s"$alias.$c")
  }

  /** Scans joined in order, non-aggregate filters, and semi/anti children. */
  final case class Body(scans: Vector[Scan], where: Vector[Term], semis: Vector[Semi])

  /** An `exists` child: its body and the equalities that correlate its scans
    * with columns of the enclosing bodies. */
  final case class Semi(negated: Boolean, body: Body, correlation: Vector[(Term, Term)])

  /** A rule's plan. Each output column carries, if it is a group key, its
    * index in `group`. DISTINCT and sort/limit are read from `head`. */
  final case class Plan(rule: Rule, body: Body, having: Vector[Term], group: Vector[Term],
                        cols: Vector[(String, Term, Option[Int])]) {
    def head: Head = rule.head
    def aggregate: Boolean = group.nonEmpty || having.nonEmpty || cols.exists(_._2.hasAgg)
  }

  private val outerKinds = Set("left", "right", "full")

  /** Relation schemas come from earlier rule heads of `p`, else from `cat`. */
  def apply(rule: Rule, p: Program, cat: Catalog): Plan = {
    def fail(why: String): Nothing = sys.error(s"rule plan: $why in ${show(rule)}")
    var aliases = 0

    /** One body; `outer` resolves the variables of the enclosing bodies. */
    final class Scope(atoms: Vector[Atom], outer: String => Option[Term]) {
      private val bound = mutable.Map[String, Term]()
      private val assigns = atoms.collect { case AssignAtom(v, t) => v -> t }.toMap
      val correlation = mutable.ArrayBuffer[(Term, Term)]()

      private val scanned = atoms.collect {
        case RelAtom(rel, vs, on) =>
          (Left(rel), vs, p.defining(rel).map(_.head.colNames)
            .getOrElse(cat.schemas.getOrElse(rel, fail(s"unknown relation $rel"))), on)
        case ConstAtom(vs, rows) => (Right(rows), vs, vs.map("c_" + _), None)
      }.map { case (source, vars, cols, on) =>
        aliases += 1
        val alias = s"t$aliases"
        if (vars.size != cols.size) fail(s"${vars.size} variables for the ${cols.size} columns of $source")
        val eqs = vars.zip(cols).flatMap { case (v, c) =>
          val ref = TVar(s"$alias.$c")
          val prev = bound.get(v)
          if (prev.isEmpty) { outer(v).foreach(o => correlation += o -> ref); bound(v) = ref }
          prev.map(_ -> ref)
        }
        (Scan(alias, source, cols, eqs, None), on)
      }
      if (scanned.isEmpty) fail("a body without a relation")
      if (scanned.head._2.nonEmpty) fail("an outer join on the first relation")

      private def lookup(v: String): Option[Term] =
        bound.get(v).orElse(assigns.get(v).map(t => TExt("inline", Seq(subst(t))))).orElse(outer(v))

      def subst(t: Term): Term = t.subst(v => lookup(v).getOrElse(fail(s"unbound variable $v")))

      private val scans = scanned.map { case (s, on) =>
        s.copy(outer = on.map { case (kind, t) =>
          if (!outerKinds(kind)) fail(s"outer join kind $kind")
          kind -> subst(t)
        })
      }
      val (having, where) = atoms.collect { case PredAtom(t) => subst(t) }.partition(_.hasAgg)
      private val semis = atoms.collect { case ExistsAtom(b, negated) =>
        val s = new Scope(b, lookup)
        if (s.having.nonEmpty) fail("an aggregate inside exists")
        Semi(negated, s.body, s.correlation.toVector)
      }
      def body: Body = Body(scans, where, semis)
    }

    val top = new Scope(rule.body, _ => None)
    val h = rule.head
    Plan(rule, top.body, top.having, h.group.map(v => top.subst(TVar(v))),
      h.cols.map { case (n, t) =>
        (n, top.subst(t), Some(t).collect { case TVar(v) => h.group.indexOf(v) }.filter(_ >= 0))
      })
  }
}
