package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.workloads.{Hybrid, Notebooks, Tpch}

/** T8 — Fig. 10: cumulative effect of the optimizations on representative
  * workloads, starting from the Grizzly-simulated baseline:
  *
  *   O0 none · O1 +dead-code elimination · O2 +group-aggregate elimination ·
  *   O3 +self-join elimination · O4 +rule inlining
  *
  * Measured on the DuckDB backend (4 threads) and the Catalyst backend. */
class OptBreakdownBench extends AnyFunSuite {
  import Bench._

  private val header = Seq("workload", "backend", "O0_ms", "O1_ms", "O2_ms", "O3_ms", "O4_ms")

  clear("opt_breakdown")

  private val targets =
    Seq(3, 9).map(Tpch.byId).map(q => (s"Q${q.id}", q.build(catalog), q.refSql)) ++
    Seq(Notebooks.crimeIndex, Notebooks.n3, Hybrid.hybridCovar, Hybrid.hybridMatmul)
      .map(w => (w.name, w.build(catalog), w.refSql))

  for ((name, d, ref) <- targets) {
    test(s"optimization breakdown $name (DuckDB)") {
      val ts = (0 to 4).map(l => runDuck(d, ref, level = l, threads = 4))
      record("opt_breakdown", header, Seq(name, "duckdb") ++ ts)
    }
    test(s"optimization breakdown $name (Catalyst)") {
      val ts = (0 to 4).map(l => runSparkDf(d, level = l))
      record("opt_breakdown", header, Seq(name, "spark") ++ ts)
    }
  }
}
