package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TondIR._

/** IR construction, traversal, renaming, and pretty-printing invariants. */
class TondIRSpec extends AnyFunSuite {

  private def v(n: String) = TVar(n)

  test("term vars collects variables at any depth") {
    val t = TIf(TBin("=", v("a"), TConst(1L)),
                TAgg("sum", TBin("*", v("b"), v("c"))),
                TExt("f", Seq(v("d"))))
    assert(t.vars == Set("a", "b", "c", "d"))
  }

  test("hasAgg sees aggregates under conditionals and binops") {
    assert(TBin("+", TConst(1L), TAgg("sum", v("x"))).hasAgg)
    assert(TIf(v("c"), TAgg("min", v("x")), TConst(0L)).hasAgg)
    assert(!TBin("+", v("x"), v("y")).hasAgg)
  }

  test("rename is total and leaves unmapped names intact") {
    val t = TBin("+", v("a"), v("b"))
    assert(t.rename(Map("a" -> "z").withDefault(identity)) == TBin("+", v("z"), v("b")))
    val e = ExistsAtom(Vector(RelAtom("r", Vector("a", "b"), Some(("left", TBin("=", v("a"), v("c"))))),
                              AssignAtom("a", v("b"))))
    assert(e.rename(Map("a" -> "z").withDefault(identity)) ==
      ExistsAtom(Vector(RelAtom("r", Vector("z", "b"), Some(("left", TBin("=", v("z"), v("c"))))),
                        AssignAtom("z", v("b")))))
  }

  test("property: NameGen never repeats names") {
    val ng = new NameGen("x")
    val names = Vector.fill(500)(ng.fresh("v"))
    assert(names.distinct.size == names.size)
  }

  test("atom allVars includes exists bodies and outer-join conditions") {
    val e = ExistsAtom(Vector(RelAtom("r", Vector("a", "b")), PredAtom(TBin(">", v("b"), v("c")))))
    assert(e.allVars == Set("a", "b", "c"))
    val o = RelAtom("r", Vector("x"), Some(("left", TBin("=", v("x"), v("y")))))
    assert(o.allVars == Set("x", "y"))
  }

  test("program base relations are those without defining rules") {
    val r1 = Rule(Head("d1", Vector("a" -> v("a"))), Vector(RelAtom("base1", Vector("a"))))
    val r2 = Rule(Head("d2", Vector("a" -> v("b"))),
      Vector(RelAtom("d1", Vector("b")), ExistsAtom(Vector(RelAtom("base2", Vector("b"))))))
    val p = Program(Vector(r1, r2), "d2")
    assert(p.baseRels == Set("base1", "base2"))
  }

  test("show produces readable Datalog-ish text") {
    val r = Rule(
      Head("R1", Vector("a" -> v("a"), "s" -> v("s")), group = Vector("a"),
           sort = Vector(("s", false)), limit = Some(10)),
      Vector(RelAtom("R", Vector("a", "b")), AssignAtom("s", TAgg("sum", v("b")))))
    val txt = TondIR.show(r)
    assert(txt.contains("R1(a, s)"))
    assert(txt.contains("group(a)"))
    assert(txt.contains("sort(-s)"))
    assert(txt.contains("limit(10)"))
    assert(txt.contains("(s = sum(b))"))
  }
}
