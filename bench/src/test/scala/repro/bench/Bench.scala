package repro.bench

import java.sql.Connection
import org.apache.spark.sql.DataFrame
import repro.Oracle
import repro.core.{Catalog, Pipeline, SqlGen}
import repro.data.{NotebookData, TpchData}
import repro.frontend.Dsl
import repro.mini.MiniPandas

/** Shared benchmark harness.
  *
  * Scale factor and iteration counts come from the environment
  * (`REPRO_BENCH_SF`, default 0.1 ≈ 100 MB; `REPRO_BENCH_ITERS`,
  * `REPRO_BENCH_WARMUP`). Every run writes its inputs as Parquet under
  * `target/inputs/` (paths are relative to the forked test JVM's working
  * directory, `bench/`) — Spark reads them as files (a fair cold-ish scan,
  * and it sidesteps cached-plan interference) and DuckDB ingests them via
  * `read_parquet`. The DuckDB thread count is set per measurement
  * (`SET threads TO n`), which provides the paper's 1..4-thread sweeps.
  *
  * Timing: `best of iters` after `warmup` warm-up rounds, reported in ms
  * (the paper reports the mean of 5 rounds after 5 warm-ups at SF=1; we
  * shrink both to keep the full table regeneration under an hour).
  * Results are printed as table rows and appended to TSVs in the checkout's
  * `bench_results/`.
  */
object Bench {
  val SF: Double  = sys.env.getOrElse("REPRO_BENCH_SF", "0.1").toDouble
  val Iters: Int  = sys.env.getOrElse("REPRO_BENCH_ITERS", "2").toInt
  val Warmup: Int = sys.env.getOrElse("REPRO_BENCH_WARMUP", "1").toInt

  lazy val spark = {
    val s = repro.SparkSpec.shared
    s.sparkContext.setLogLevel("WARN")
    s
  }

  val inputDir = "target/inputs"
  private val dataDir = s"$inputDir/sf$SF"
  private val resultDir = new java.io.File("../bench_results")

  /** Write `df` to `path` as Parquet, replacing what is there, and read it back. */
  def parquet(df: DataFrame, path: String): DataFrame = {
    df.write.mode("overwrite").parquet(path)
    spark.read.parquet(path)
  }

  /** All base tables (TPC-H + notebook/hybrid) as Parquet-backed frames. */
  lazy val inputs: Map[String, DataFrame] =
    (TpchData.tables(spark, SF) ++ NotebookData.tables(spark, SF)).map { case (n, df) =>
      n -> parquet(df, s"$dataDir/$n")
    }

  val catalog: Catalog = Catalog(
    TpchData.catalog.schemas ++ NotebookData.catalog.schemas,
    TpchData.catalog.uniqueCols ++ NotebookData.catalog.uniqueCols,
    TpchData.catalog.matrixCols ++ NotebookData.catalog.matrixCols)

  /** One persistent DuckDB connection with all tables loaded from Parquet. */
  lazy val duck: Connection = {
    inputs.keys // force parquet materialization first
    val c = Oracle.connect()
    inputs.keys.foreach { n =>
      c.createStatement.execute(
        s"CREATE TABLE $n AS SELECT * FROM read_parquet('$dataDir/$n/*.parquet')")
    }
    c
  }

  def duckThreads(n: Int): Unit =
    duck.createStatement.execute(s"SET threads TO $n")

  lazy val mini: Map[String, MiniPandas.Table] = inputs.map { case (n, df) =>
    n -> MiniPandas.Table(df.columns.toVector, df.collect().toVector.map(_.toSeq.toArray))
  }

  // ------------------------------------------------------------- measuring
  def timeMs(f: => Unit): Double = {
    val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e6
  }

  /** Best-of-N timing after warm-ups. */
  def bench(f: => Unit): Double = {
    (1 to Warmup).foreach(_ => f)
    (1 to Iters).map(_ => timeMs(f)).min
  }

  // --------------------------------------------------------------- runners
  /** "Python": the MiniPandas eager interpreter. */
  def runPython(df: Dsl.Df): Double = bench { MiniPandas.run(df, mini) }

  /** DuckDB backend at a given optimization level and thread count.
    * (O0 = Grizzly-simulated, O4 = PyTond.) The result is first checked
    * against the program's reference SQL, so a wrong plan fails instead of
    * being timed. DuckDB runs are cheap but sit inside a JVM running Spark,
    * so they take extra rounds to shake off GC/scheduler noise. */
  def runDuck(df: Dsl.Df, refSql: String, level: Int, threads: Int): Double = {
    val sql = Pipeline.toSql(df, catalog, SqlGen.DuckDialect, level)
    duckThreads(threads)
    try Oracle.assertSqlEquivalent(duck, sql, refSql)
    catch { case e: IllegalArgumentException =>
      throw new IllegalArgumentException(s"O$level, DuckDB threads=$threads: ${e.getMessage}", e) }
    def once(): Unit = {
      val rs = duck.createStatement.executeQuery(sql)
      while (rs.next()) {} // drain
      rs.close()
    }
    (1 to math.max(Warmup, 2)).foreach(_ => once())
    (1 to math.max(Iters, 5)).map(_ => timeMs(once())).min
  }

  /** Spark SQL text backend (the compiled-engine stand-in). */
  def runSparkSql(df: Dsl.Df, level: Int): Double = {
    inputs.foreach { case (n, d) => d.createOrReplaceTempView(n) }
    val sql = Pipeline.toSql(df, catalog, SqlGen.SparkDialect, level)
    bench { spark.sql(sql).collect() }
  }

  /** Direct TondIR → Catalyst backend. */
  def runSparkDf(df: Dsl.Df, level: Int): Double =
    bench { Pipeline.toSpark(df, catalog, inputs, spark, level).collect() }

  // ---------------------------------------------------------------- output
  /** Delete a table's TSV so this run's rows replace the previous run's. */
  def clear(table: String): Unit = new java.io.File(resultDir, s"$table.tsv").delete()

  def record(table: String, header: Seq[String], row: Seq[Any]): Unit = {
    resultDir.mkdirs()
    val f = new java.io.File(resultDir, s"$table.tsv")
    val fresh = !f.exists()
    def fmt(v: Any): String = v match {
      case d: Double if math.abs(d) < 1.0 && d != 0.0 => f"$d%.4f"
      case d: Double                                  => f"$d%.1f"
      case x                                          => String.valueOf(x)
    }
    val w = new java.io.FileWriter(f, true)
    try {
      if (fresh) w.write(header.mkString("\t") + "\n")
      w.write(row.map(fmt).mkString("\t") + "\n")
    } finally w.close()
    println(s"[$table] " + header.zip(row).map { case (h, v) => s"$h=${fmt(v)}" }.mkString("  "))
  }

  def geomean(xs: Seq[Double]): Double =
    math.exp(xs.map(x => math.log(math.max(x, 1e-9))).sum / xs.size)
}
