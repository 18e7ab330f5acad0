package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{NotebookData, TpchData}
import repro.frontend.Lower
import repro.workloads.{Hybrid, Notebooks, Tpch}

/** Optimizer invariants on every workload program (engine-free). */
class OptimizerWorkloadsSpec extends AnyFunSuite {

  private val programs: Seq[(String, TondIR.Program, Catalog)] =
    Tpch.all.map(q => (s"Q${q.id}", Lower.lower(q.build(TpchData.catalog), TpchData.catalog), TpchData.catalog)) ++
      (Notebooks.all ++ Hybrid.all).map(w =>
        (w.name, Lower.lower(w.build(NotebookData.catalog), NotebookData.catalog), NotebookData.catalog))

  test("there are 30 workload programs") {
    assert(programs.size == 30)
  }

  test("one DCE step reaches its fixpoint on every workload program") {
    for ((name, p, _) <- programs) withClue(s"$name: ") {
      val once = Optimizer.globalDce(Optimizer.localDce(p))
      assert(Optimizer.globalDce(Optimizer.localDce(once)) == once)
    }
  }

  test("every level is idempotent on every workload program") {
    for ((name, p, cat) <- programs; l <- 1 to 4) withClue(s"$name O$l: ") {
      val once = Optimizer.optimize(p, cat, l)
      assert(Optimizer.optimize(once, cat, l) == once)
    }
  }

  test("the rule count never grows from O0 to O4 on any workload program") {
    for ((name, p, cat) <- programs) withClue(s"$name: ") {
      val sizes = (0 to 4).map(l => Optimizer.optimize(p, cat, l).rules.size)
      assert(sizes.zip(sizes.tail).forall { case (x, y) => y <= x }, sizes)
    }
  }

  test("every workload program keeps the rule order at every level") {
    for ((name, p, cat) <- programs; l <- 0 to 4) withClue(s"$name O$l: ") {
      TondIR.check(Optimizer.optimize(p, cat, l))
    }
  }
}
