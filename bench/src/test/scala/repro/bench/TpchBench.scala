package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.workloads.Tpch

/** T1/T2 — Fig. 3 and Fig. 4: all 22 TPC-H queries across the alternatives.
  *
  *   python          MiniPandas eager interpreter ("Python/Pandas")
  *   grizzly_duck_tN O0 SQL on DuckDB, N threads  (Grizzly-simulated)
  *   pytond_duck_tN  O4 SQL on DuckDB, N threads  (PyTond)
  *   grizzly_spark   O0 SQL via spark.sql          (Grizzly-sim / Hyper-stand-in)
  *   pytond_spark    O4 SQL via spark.sql          (PyTond / Hyper-stand-in)
  *   pytond_sparkdf  O4 TondIR→Catalyst            (PyTond / LingoDB-stand-in)
  *
  * Emits one row per query to bench_results/tpch.tsv plus geomean summary
  * rows matching the §V-B headline numbers.
  */
class TpchBench extends AnyFunSuite {
  import Bench._

  private val header = Seq("query", "python_ms",
    "grizzly_duck_t1", "pytond_duck_t1", "grizzly_duck_t4", "pytond_duck_t4",
    "grizzly_spark", "pytond_spark", "pytond_sparkdf")

  private val rows = scala.collection.mutable.ArrayBuffer[Seq[Double]]()

  clear("tpch")
  clear("tpch_summary")

  for (q <- Tpch.all) {
    test(s"bench Q${q.id}") {
      val d = q.build(catalog)
      val py  = runPython(d)
      val gd1 = runDuck(d, q.refSql, level = 0, threads = 1)
      val pd1 = runDuck(d, q.refSql, level = 4, threads = 1)
      val gd4 = runDuck(d, q.refSql, level = 0, threads = 4)
      val pd4 = runDuck(d, q.refSql, level = 4, threads = 4)
      val gs  = runSparkSql(d, level = 0)
      val ps  = runSparkSql(d, level = 4)
      val pdf = runSparkDf(d, level = 4)
      val r = Seq(py, gd1, pd1, gd4, pd4, gs, ps, pdf)
      rows += r
      record("tpch", header, s"Q${q.id}" +: r)
    }
  }

  test("geomean summary (§V-B headline numbers)") {
    require(rows.nonEmpty)
    def gm(i: Int) = geomean(rows.map(_(i)).toSeq)
    val py = gm(0)
    record("tpch_summary",
      Seq("metric", "value"),
      Seq("geomean_speedup_pytond_duck_1t_vs_python", py / gm(2)))
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_speedup_pytond_duck_4t_vs_python", py / gm(4)))
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_speedup_pytond_spark_vs_python", py / gm(6)))
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_speedup_pytond_sparkdf_vs_python", py / gm(7)))
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_opt_gain_duck_1t", gm(1) / gm(2)))   // Grizzly-sim / PyTond
    record("tpch_summary", Seq("metric", "value"),
      Seq("geomean_opt_gain_spark", gm(5) / gm(6)))
  }
}
