package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.workloads.{Hybrid, Notebooks, Tpch}

/** T5/T6 — Fig. 7 and Fig. 8: thread scalability of the PyTond/DuckDB
  * backend (1..4 threads) for representative TPC-H queries (Q1, Q4, Q6,
  * Q13) and hybrid workloads. Speedups vs 1 thread are derived in
  * EXPERIMENTS.md from these absolute times. */
class ScalabilityBench extends AnyFunSuite {
  import Bench._

  private val header = Seq("workload", "t1_ms", "t2_ms", "t3_ms", "t4_ms",
    "speedup_t2", "speedup_t3", "speedup_t4")

  clear("scalability")

  private val targets =
    Seq(1, 4, 6, 13).map(Tpch.byId).map(q => (s"Q${q.id}", q.build(catalog), q.refSql)) ++
    (Notebooks.all.filter(w => Set("CrimeIndex", "N3", "N9").contains(w.name)) ++
      Seq(Hybrid.hybridMatmul, Hybrid.hybridCovar))
      .map(w => (w.name, w.build(catalog), w.refSql))

  for ((name, d, ref) <- targets) {
    test(s"scalability $name") {
      val ts = (1 to 4).map(n => runDuck(d, ref, level = 4, threads = n))
      record("scalability", header,
        name +: (ts ++ Seq(ts(0) / ts(1), ts(0) / ts(2), ts(0) / ts(3))))
    }
  }
}
