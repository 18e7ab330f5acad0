package repro.perfbench

import java.sql.Connection
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.core.{Optimizer, SparkGen, SqlGen, TondIR}
import repro.frontend.Lower

/** What a path needs from set-up: DuckDB with the inputs loaded, and, once
  * Spark has started, the Spark session and the input frames. */
final case class Engines(duck: Connection, threads: Int,
                         sparkSide: Option[(SparkSession, Map[String, DataFrame])] = None) {
  def spark: SparkSession = sparkSide.getOrElse(sys.error("Spark is not started"))._1
  def frames: Map[String, DataFrame] = sparkSide.getOrElse(sys.error("Spark is not started"))._2
}

/** One way of running a program, from DSL to drained result, through the
  * same public entry points a user calls. `prepare` sets engine options
  * outside the timed region; `run` returns the number of rows it drained;
  * `check` compares the result, with `Oracle`'s tolerance, with the result
  * of `reference` on DuckDB and throws on a mismatch. */
final case class Path(name: String, onSpark: Boolean, prepare: Engines => Unit,
                      run: (Engines, Program) => Long,
                      check: (Engines, Program, String) => Unit) {
  def applies(p: Program): Boolean = !onSpark || p.onSpark
}

object Paths {
  import Trace.span
  private def cat = Workloads.catalog

  def compile(p: Program, level: Int): TondIR.Program = {
    val ir = span("lower")(Lower.lower(p.df, cat))
    span("optimizer")(Optimizer.optimize(ir, cat, level))
  }

  /** DSL → DuckDB SQL text, with no engine: the compile_o4_ms unit. */
  def duckSql(p: Program, level: Int): String = {
    val ir = compile(p, level)
    span("sqlgen")(SqlGen.programSql(ir, cat, SqlGen.DuckDialect))
  }

  def setThreads(e: Engines, n: Int): Unit = {
    val st = e.duck.createStatement(); st.execute(s"SET threads TO $n"); st.close()
  }

  def duck(name: String, level: Int, threads: Engines => Int): Path = Path(name, onSpark = false,
    e => setThreads(e, threads(e)),
    (e, p) => {
      val sql = duckSql(p, level)
      val ps = span("duck.prepare")(e.duck.prepareStatement(sql))
      try span("duck.execute") {
        val rs = ps.executeQuery()
        var n = 0L
        while (rs.next()) n += 1
        rs.close()
        n
      } finally ps.close()
    },
    (e, p, reference) => {
      val (cols, rows) = Oracle.query(e.duck, duckSql(p, level))
      Oracle.assertRowsEquivalentOn(e.duck, cols, rows.map(_.toSeq), reference)
    })

  /** Hook for the traced run: called with each Spark frame after collect. */
  @volatile var onSparkResult: (DataFrame, Double) => Unit = (_, _) => ()

  private def collect(df: DataFrame): Long = {
    val t0 = System.nanoTime()
    val n = span("spark.collect")(df.collect().length.toLong)
    onSparkResult(df, (System.nanoTime() - t0) / 1e6)
    n
  }

  private def sparkSqlFrame(e: Engines, p: Program): DataFrame = {
    val ir = compile(p, 4)
    val sql = span("sqlgen")(SqlGen.programSql(ir, cat, SqlGen.SparkDialect))
    span("spark.sql")(e.spark.sql(sql))
  }

  private def sparkGenFrame(e: Engines, p: Program): DataFrame = {
    val ir = compile(p, 4)
    span("sparkgen")(SparkGen.compile(ir, e.frames, cat, e.spark))
  }

  val sparkSql: Path = Path("sparksql_o4", onSpark = true, _ => (),
    (e, p) => collect(sparkSqlFrame(e, p)),
    (e, p, reference) => Oracle.assertEquivalentOn(e.duck, sparkSqlFrame(e, p), reference))

  val sparkGen: Path = Path("sparkgen_o4", onSpark = true, _ => (),
    (e, p) => collect(sparkGenFrame(e, p)),
    (e, p, reference) => Oracle.assertEquivalentOn(e.duck, sparkGenFrame(e, p), reference))

  /** The DuckDB paths, with 1 thread or with all `threads`. */
  val duckPaths: Seq[Path] = Seq(
    duck("duck_o4_t1", 4, _ => 1),
    duck("duck_o0_t1", 0, _ => 1),
    duck("duck_o4_tN", 4, _.threads))

  val sparkPaths: Seq[Path] = Seq(sparkSql, sparkGen)
}
