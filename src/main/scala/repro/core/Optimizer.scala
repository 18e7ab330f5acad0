package repro.core

import scala.collection.mutable
import TondIR._

/** TondIR optimizer (§IV).
  *
  * Five passes, stacked exactly as in the paper's Fig. 10 breakdown:
  *
  *  - '''O1''' local + global dead-code elimination
  *  - '''O2''' O1 + group-aggregate elimination
  *  - '''O3''' O2 + self-join elimination
  *  - '''O4''' O3 + rule inlining (flow breakers per Table VII)
  *
  * Level O0 is the identity — the "Grizzly-simulated" baseline of §V-A,
  * i.e. PyTond's translation output before any optimization.
  */
object Optimizer {

  /** Run level `level`'s passes to their fixpoint. A step at O1 runs DCE;
    * O2 adds group-aggregate elimination and O3 self-join elimination. O4
    * inlines rules once, between two O3 fixpoints. */
  def optimize(p: Program, cat: Catalog, level: Int): Program = {
    TondIR.check(p)
    level match {
      case 0          => p
      case 1 | 2 | 3  => fix(p, level)(step(level, cat))
      case 4          => fix(inlineRules(fix(p, 3)(step(3, cat))), 4)(step(3, cat))
      case n          => sys.error(s"optimizer: unknown level $n")
    }
  }

  private def step(level: Int, cat: Catalog)(p: Program): Program =
    if (level == 1) globalDce(p)
    else {
      val uniq = uniqueColumns(p, cat)
      globalDce(groupAggElim(if (level >= 3) selfJoinElim(p, uniq) else p, uniq))
    }

  /** Most changing steps `fix` takes. Since global DCE prunes a whole chain
    * in one sweep, each of the 30 workload programs settles after at most one
    * changing step at every level; the cap stops a pass that never settles. */
  private val FixpointCap = 50

  /** Apply `step` until the program stops changing; fail at the cap. */
  private[core] def fix(p: Program, level: Int)(step: Program => Program): Program = {
    var (cur, next, steps) = (p, step(p), 0)
    while (next != cur) {
      steps += 1
      if (steps > FixpointCap)
        sys.error(s"optimizer: O$level reached no fixpoint in $FixpointCap steps")
      cur = next
      next = step(cur)
    }
    cur
  }

  // ------------------------------------------------- local DCE (per rule)
  /** Remove assignments whose variable is referenced nowhere in the rule
    * (not in the head, group, other atoms, or other assignments). */
  def localDce(p: Program): Program = p.copy(rules = p.rules.map(localDce))

  def localDce(r: Rule): Rule = {
    val used = mutable.HashSet[String]() ++= r.head.group
    r.head.cols.foreach(_._2.foreachVar(used += _))
    r.body.foreach {
      case AssignAtom(_, t) => t.foreachVar(used += _)
      case a                => a.foreachVar(used += _)
    }
    if (r.assigns.forall(a => used(a.v))) r
    else localDce(r.copy(body = r.body.filter {
      case AssignAtom(v, _) => used(v)
      case _                => true
    }))
  }

  // ------------------------------------------------------------ global DCE
  /** Remove head columns of intermediate rules that no downstream rule
    * reads, and drop rules that nothing (transitively) depends on.
    *
    * One backward sweep: in the rule order [[TondIR.check]] enforces, every
    * consumer comes after its producers, so walking the rules in reverse
    * visits each rule after all of its consumers (live-variable analysis over
    * an acyclic graph). A position of a relation is read if a consumer
    * references its variable in a term, the head or the group, or joins on
    * it (the variable repeats across relation accesses). */
  def globalDce(p: Program): Program = {
    val reads = mutable.Map[String, Set[Int]](p.result -> Set.empty)
    val kept = mutable.Map[String, Vector[Int]]()
    val live = Vector.newBuilder[Rule]
    for (r <- p.rules.reverseIterator; used <- reads.get(r.head.rel)) {
      val cols = r.head.cols
      val pruned =
        if (r.head.rel == p.result || used.isEmpty || used.size == cols.size) r
        else {
          val keep = cols.indices.filter(used).toVector
          kept(r.head.rel) = keep
          r.copy(head = r.head.copy(cols = keep.map(cols)))
        }
      val out = localDce(pruned)
      val accesses = out.body.flatMap(allRelAtoms)
      val counts = mutable.HashMap[String, Int]().withDefaultValue(0)
      for (ra <- accesses; v <- ra.vars) counts(v) += 1
      val referenced = mutable.HashSet[String]() ++= out.head.group
      out.head.cols.foreach(_._2.foreachVar(referenced += _))
      out.body.foreach(termVars(_, referenced += _))
      for (ra <- accesses)
        reads(ra.rel) = reads.getOrElse(ra.rel, Set.empty[Int]) ++
          ra.vars.indices.filter(i => referenced(ra.vars(i)) || counts(ra.vars(i)) > 1)
      live += out
    }
    def fixAtom(a: Atom): Atom = a match {
      case ra @ RelAtom(rel, vars, _) if kept.contains(rel) => ra.copy(vars = kept(rel).map(vars))
      case ExistsAtom(b, n)                                 => ExistsAtom(b.map(fixAtom), n)
      case other                                            => other
    }
    val rules = live.result().reverse
    p.copy(rules = if (kept.isEmpty) rules else rules.map(r => r.copy(body = r.body.map(fixAtom))))
  }

  /** Apply `f` to the variables the atom's terms reference, at any nesting
    * depth (not the bare bindings of relation and VALUES accesses). */
  private def termVars(a: Atom, f: String => Unit): Unit = a match {
    case AssignAtom(_, t)             => t.foreachVar(f)
    case PredAtom(t)                  => t.foreachVar(f)
    case RelAtom(_, _, Some((_, on))) => on.foreachVar(f)
    case ExistsAtom(b, _)             => b.foreach(termVars(_, f))
    case _                            => ()
  }

  // ---------------------------------------------- group-aggregate elimination
  /** If a rule groups by a column known to be unique (PK / UID / previous
    * group key), the grouping is a no-op: drop `group` and unwrap every
    * aggregate in the head, assignments and predicates (`sum/min/max/avg(t)
    * → t`, `count(*) → 1`). A rule that counts a column is left alone:
    * `count(x)` is 0 where `x` is NULL. */
  def groupAggElim(p: Program, uniq: Map[String, Set[Int]]): Program = {
    val rules = p.rules.map { r =>
      val singleRel = r.relAtoms.size == 1 && !r.hasOuter &&
        !r.body.exists(_.isInstanceOf[ExistsAtom])
      val groupUnique = r.head.group.nonEmpty && singleRel && {
        val ra = r.relAtoms.head
        r.head.group.exists { g =>
          val i = ra.vars.indexOf(g)
          i >= 0 && uniq.getOrElse(ra.rel, Set.empty).contains(i)
        }
      }
      if (!groupUnique) r
      else {
        var countsColumn = false
        def unwrap(t: Term): Term = t match {
          case TAgg("count", TConst(_), _) => TConst(1L)
          case TAgg("count", _, _)         => countsColumn = true; t
          case TAgg(_, a, _)               => unwrap(a)
          case TIf(c, a, b)                => TIf(unwrap(c), unwrap(a), unwrap(b))
          case TBin(o, l, rr)              => TBin(o, unwrap(l), unwrap(rr))
          case TExt(f, as)                 => TExt(f, as.map(unwrap))
          case x                           => x
        }
        val out = r.copy(
          head = r.head.copy(group = Vector.empty,
                             cols = r.head.cols.map { case (n, t) => n -> unwrap(t) }),
          body = r.body.map {
            case AssignAtom(v, t) => AssignAtom(v, unwrap(t))
            case PredAtom(t)      => PredAtom(unwrap(t))
            case a                => a
          })
        if (countsColumn) r else out
      }
    }
    p.copy(rules = rules)
  }

  /** Unique column positions per relation: catalog keys for base tables,
    * propagated through rule heads (group keys are unique in the result;
    * a bare projection of a unique column stays unique; UID() is unique). */
  def uniqueColumns(p: Program, cat: Catalog): Map[String, Set[Int]] =
    p.rules.foldLeft(cat.uniquePositions) { (m, r) =>
      val uids = r.body.collect { case AssignAtom(v, TExt("uid", _)) => v }.toSet
      val bodyUnique: Set[String] = r.relAtoms match {
        case Vector(ra) => ra.vars.zipWithIndex.collect { case (v, i) if m.getOrElse(ra.rel, Set.empty).contains(i) => v }.toSet
        case _          => Set.empty
      }
      m.updated(r.head.rel, r.head.cols.zipWithIndex.collect {
        case ((_, TVar(v)), i)
          if (r.head.group.size == 1 && r.head.group.head == v) ||
             (r.head.group.isEmpty && bodyUnique.contains(v)) || uids(v) => i
      }.toSet)
    }

  // -------------------------------------------------- self-join elimination
  /** Drop a duplicate access to the same relation when the two accesses are
    * joined on a unique column and neither is otherwise constrained: all
    * information of the second access is available from the first. */
  def selfJoinElim(p: Program, uniq: Map[String, Set[Int]]): Program = {
    val rules = p.rules.map { r =>
      val atoms = r.relAtoms
      var body = r.body
      var subst = Map.empty[String, String]
      for (i <- atoms.indices; j <- (i + 1) until atoms.size) {
        val (a, b) = (atoms(i), atoms(j))
        if (a.rel == b.rel && a.outerOn.isEmpty && b.outerOn.isEmpty && body.contains(b)) {
          val joinPos = a.vars.zip(b.vars).zipWithIndex.collect { case ((x, y), k) if x == y => k }
          val onUnique = joinPos.exists(k => uniq.getOrElse(a.rel, Set.empty).contains(k))
          if (joinPos.nonEmpty && onUnique) {
            // substitute b's vars by a's, remove b
            subst = subst ++ b.vars.zip(a.vars).filter { case (x, y) => x != y }.toMap
            body = body.filterNot(_ eq b)
          }
        }
      }
      if (subst.isEmpty) r
      else {
        val f: String => String = v => subst.getOrElse(v, v)
        Rule(
          r.head.copy(cols = r.head.cols.map { case (n, t) => n -> t.rename(f) },
                      group = r.head.group.map(f)),
          body.map(_.rename(f)))
      }
    }
    p.copy(rules = rules)
  }

  // ----------------------------------------------------------- rule inlining
  /** A rule is a flow breaker (Table VII) if it aggregates, groups, is
    * DISTINCT, sorts/limits, contains an outer join, or is the sink rule. */
  def isFlowBreaker(r: Rule, p: Program): Boolean =
    r.hasAgg || r.head.distinct || r.head.sort.nonEmpty || r.head.limit.nonEmpty ||
      r.hasOuter || r.head.rel == p.result

  /** Fuse chains of non-flow-breaker rules into their (single) consumer.
    * Variables of the inlined body are renamed so head columns line up with
    * the consumer's positional binding; all other internal variables get
    * fresh names to respect relation-access renaming (§III-B).
    *
    * Splicing moves a producer's accesses into its consumer, so it changes
    * no consumer count, outer access or flow breaker: the candidates are
    * found once and spliced in rule order, producers before consumers. */
  def inlineRules(p: Program): Program = {
    val ng = new NameGen("il")
    val accesses = p.rules.zipWithIndex.flatMap { case (r, i) => r.body.flatMap(allRelAtoms).map(_ -> i) }
    val consumers = accesses.groupBy(_._1.rel)
    // Relations accessed as the right side of an outer join cannot be
    // spliced (their filters must stay behind the join).
    val outerConsumed = accesses.collect { case (RelAtom(rel, _, Some(_)), _) => rel }.toSet
    val rules: Array[Option[Rule]] = p.rules.map(Some(_)).toArray
    for (i <- rules.indices; prod <- rules(i); cons <- consumers.get(prod.head.rel)
         if cons.size == 1 && !isFlowBreaker(prod, p) && !outerConsumed(prod.head.rel) &&
           prod.head.cols.forall { case (_, t) => !t.hasAgg }) {
      val j = cons.head._2
      rules(j) = rules(j).map(spliceInto(_, prod, ng))
      rules(i) = None
    }
    p.copy(rules = rules.toVector.flatten)
  }

  /** Replace every access to `prod.head.rel` inside `cons` by `prod`'s body
    * (with renamed variables). */
  private def spliceInto(cons: Rule, prod: Rule, ng: NameGen): Rule = {
    def splice(atoms: Vector[Atom]): Vector[Atom] = atoms.flatMap {
      case ra @ RelAtom(rel, vars, outer) if rel == prod.head.rel =>
        require(outer.isEmpty, "cannot inline into outer-join access")
        // Build renaming: producer's head col i ↦ consumer var at position i.
        var ren = Map.empty[String, String]
        val extra = mutable.ArrayBuffer[Atom]()
        prod.head.cols.zipWithIndex.foreach { case ((_, t), i) =>
          t match {
            case TVar(v) =>
              ren.get(v) match {
                case Some(prev) if prev != vars(i) =>
                  // same producer var exported twice — equate consumer vars
                  extra += PredAtom(TBin("=", TVar(prev), TVar(vars(i))))
                case _ => ren += v -> vars(i)
              }
            case other =>
              // computed head column: emit an assignment to the consumer var
              extra += AssignAtom(vars(i), other) // renamed below
          }
        }
        // fresh names for all internal producer vars
        val internal = prod.body.flatMap(_.allVars).toSet -- ren.keySet
        val fresh = internal.map(v => v -> ng.fresh(v)).toMap
        val f: String => String = v => ren.getOrElse(v, fresh.getOrElse(v, v))
        (prod.body ++ extra).map(_.rename(f))
      case ExistsAtom(b, n) => Vector(ExistsAtom(splice(b), n))
      case other            => Vector(other)
    }
    cons.copy(body = splice(cons.body))
  }
}
