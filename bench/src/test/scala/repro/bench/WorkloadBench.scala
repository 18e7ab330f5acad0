package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.workloads.{Hybrid, Notebooks}

/** T3/T4 — Fig. 5 and Fig. 6: the data-science workloads (Crime Index,
  * Birth Analysis, N3, N9, hybrid matmul/covar ± filtered) across the same
  * alternative set as [[TpchBench]]. */
class WorkloadBench extends AnyFunSuite {
  import Bench._

  private val header = Seq("workload", "python_ms",
    "grizzly_duck_t1", "pytond_duck_t1", "grizzly_duck_t4", "pytond_duck_t4",
    "grizzly_spark", "pytond_spark", "pytond_sparkdf")

  clear("workloads")

  for (w <- Notebooks.all ++ Hybrid.all) {
    test(s"bench ${w.name}") {
      val d = w.build(catalog)
      val r = Seq(
        runPython(d),
        runDuck(d, w.refSql, level = 0, threads = 1), runDuck(d, w.refSql, level = 4, threads = 1),
        runDuck(d, w.refSql, level = 0, threads = 4), runDuck(d, w.refSql, level = 4, threads = 4),
        runSparkSql(d, level = 0), runSparkSql(d, level = 4),
        runSparkDf(d, level = 4))
      record("workloads", header, w.name +: r)
    }
  }
}
