package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.core.{Pipeline, SparkGen, SqlGen}
import repro.data.NotebookData
import repro.mini.MiniPandas
import repro.workloads.CovarMicro

/** T7 — Fig. 9: covariance-matrix computation sweeps over rows, columns,
  * and density (the paper's "sparsity" axis), comparing MiniNumPy (the
  * NumPy stand-in) against PyTond's dense and sparse (COO) translations on
  * DuckDB and on the Catalyst backend.
  *
  * Default sweep sizes are container-scale versions of the paper's
  * 1M-row/32-column fixed points (the paper's absolute sizes are reachable
  * by setting REPRO_COVAR_MAX_ROWS). */
class CovarBench extends AnyFunSuite {
  import Bench._

  private val header = Seq("sweep", "rows", "cols", "density",
    "numpy_ms", "pytond_duck_dense", "pytond_duck_sparse",
    "pytond_spark_dense", "pytond_spark_sparse")

  clear("covar")

  private val maxRows = sys.env.getOrElse("REPRO_COVAR_MAX_ROWS", "200000").toLong

  private val sweeps: Seq[(String, Long, Int, Double)] =
    Seq(20_000L, 100_000L, maxRows).map(r => ("rows", r, 8, 1.0)) ++
    Seq(4, 8, 16).map(c => ("cols", 100_000L, c, 1.0)) ++
    Seq(0.001, 0.01, 0.1, 1.0).map(d => ("density", 100_000L, 8, d))

  for ((sweep, rows, cols, density) <- sweeps) {
    test(s"covariance $sweep rows=$rows cols=$cols density=$density") {
      val cat = CovarMicro.catalogFor(cols)
      // materialize as parquet so every engine reads identical bytes
      val dDir = s"$inputDir/covar/dense_${rows}_${cols}_$density"
      val cDir = s"$inputDir/covar/coo_${rows}_${cols}_$density"
      val denseP = parquet(NotebookData.matrixDense(spark, rows, cols, density), dDir)
      val cooP   = parquet(NotebookData.matrixCoo(spark, rows, cols, density), cDir)

      val conn = Oracle.connect()
      try {
        conn.createStatement.execute(s"CREATE TABLE m AS SELECT * FROM read_parquet('$dDir/*.parquet')")
        conn.createStatement.execute(s"CREATE TABLE m_coo AS SELECT * FROM read_parquet('$cDir/*.parquet')")
        conn.createStatement.execute("SET threads TO 4")

        val miniIn = Map("m" -> MiniPandas.Table(denseP.columns.toVector,
          denseP.collect().toVector.map(_.toSeq.toArray)))
        val numpy = bench { MiniPandas.run(CovarMicro.denseDf(cols), miniIn) }

        val denseSql  = Pipeline.toSql(CovarMicro.denseDf(cols), cat, SqlGen.DuckDialect, 4)
        val sparseSql = SqlGen.programSql(CovarMicro.sparseProgram(), cat, SqlGen.DuckDialect)
        def drain(sql: String): Unit = {
          val rs = conn.createStatement.executeQuery(sql); while (rs.next()) {}; rs.close()
        }
        val duckDense  = bench { drain(denseSql) }
        val duckSparse = bench { drain(sparseSql) }

        val sparkDense = bench {
          Pipeline.toSpark(CovarMicro.denseDf(cols), cat, Map("m" -> denseP), spark, 4).collect() }
        val sparkSparse = bench {
          SparkGen.compile(CovarMicro.sparseProgram(), Map("m_coo" -> cooP), cat, spark).collect() }

        record("covar", header, Seq(sweep, rows, cols, density,
          numpy, duckDense, duckSparse, sparkDense, sparkSparse))
      } finally conn.close()
    }
  }
}
