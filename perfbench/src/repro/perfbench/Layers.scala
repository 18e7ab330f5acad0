package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.DataFrame
import repro.Oracle
import repro.core.Optimizer
import repro.frontend.Lower
import repro.mini.MiniPandas
import Measure.{median, msSince}

/** Per-layer measurements of the traced run that spans alone do not give. */
object Layers {

  /** Spark's own account of each query on the traced Spark paths: phase
    * times from the query's tracker, and job, stage, task and shuffle totals
    * from a listener. A traced twin drains the listener bus before and after
    * its query, so the counter deltas belong to that query. */
  final class SparkProbe(sc: SparkContext) extends SparkListener {
    @volatile private var jobs, stages, tasks, taskMs, shuffleRead, shuffleWrite = 0L
    override def onJobStart(j: SparkListenerJobStart): Unit = jobs += 1
    override def onStageCompleted(s: SparkListenerStageCompleted): Unit = stages += 1
    override def onTaskEnd(t: SparkListenerTaskEnd): Unit = {
      tasks += 1
      Option(t.taskMetrics).foreach { m =>
        taskMs += m.executorRunTime
        shuffleRead += m.shuffleReadMetrics.totalBytesRead
        shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      }
    }
    private def counts: Vector[Long] = Vector(jobs, stages, tasks, taskMs, shuffleRead, shuffleWrite)
    sc.addSparkListener(this)

    private val Phases = Vector("parsing", "analysis", "optimization", "planning")
    private val stats = mutable.Map.empty[(String, String), mutable.ArrayBuffer[Vector[Double]]]
    private var last: (DataFrame, Double) = null
    Paths.onSparkResult = (df, ms) => if (Trace.enabled) last = (df, ms)

    def twin(p: Path): Path = p.copy(run = (e, prog) => {
      org.apache.spark.ListenerBusDrain(sc)
      val before = counts
      val n = p.run(e, prog)
      org.apache.spark.ListenerBusDrain(sc)
      val delta = counts.zip(before).map { case (x, y) => (x - y).toDouble }
      val tracked = last._1.queryExecution.tracker.phases
      val phaseMs = Phases.map(k => tracked.get(k).map(_.durationMs.toDouble).getOrElse(0.0))
      // Optimization and planning run inside collect; the rest of it executes.
      val executeMs = math.max(0.0, last._2 - phaseMs(2) - phaseMs(3))
      stats.getOrElseUpdate((prog.name, p.name), mutable.ArrayBuffer.empty) += (phaseMs :+ executeMs) ++ delta
      n
    })

    /** Per quantity: the median per program and Spark path, summed. */
    def metrics: Seq[(String, Double)] =
      ((Phases :+ "execute").map(n => s"spark.${n}_ms") ++
        Seq("spark.jobs", "spark.stages", "spark.tasks", "spark.task_ms", "spark.shuffle_read_bytes", "spark.shuffle_write_bytes"))
        .zipWithIndex.map { case (n, i) => n -> stats.values.map(vs => median(vs.map(_(i)).toSeq)).sum }
  }

  /** Rows the DuckDB profiler reports over all operators of `sql`. */
  def operatorRows(e: Engines, sql: String, work: File): Long = {
    val out = new File(work, s"duck-profile-${ProcessHandle.current.pid}.json")
    val st = e.duck.createStatement()
    st.execute("PRAGMA enable_profiling = 'json'")
    st.execute(s"PRAGMA profiling_output = '${out.getPath}'")
    try { val rs = st.executeQuery(sql); while (rs.next()) {}; rs.close() }
    finally { st.execute("PRAGMA disable_profiling"); st.close() }
    def sum(n: JsonNode): Long =
      Seq("operator_cardinality", "cardinality").find(n.has).map(n.get(_).asLong).getOrElse(0L) +
        Option(n.get("children")).map(_.elements.asScala.map(sum).sum).getOrElse(0L)
    try sum(new ObjectMapper().readTree(out)) finally out.delete()
  }

  private def allocatedBytes(): Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean].getCurrentThreadAllocatedBytes

  private val Repeats = 5

  /** Optimizer time per level as the increment t(level l) − t(level l−1),
    * allocation of lowering and of O4 optimization, and the exact IR and
    * SQL counts; each summed over the timed programs. */
  def compiler(wl: Workload): Map[String, Double] = {
    val cat = Workloads.catalog
    val out = mutable.Map.empty[String, Double].withDefaultValue(0.0)
    def alloc(f: => Any): Double = median((1 to Repeats).map { _ =>
      val b0 = allocatedBytes(); f; (allocatedBytes() - b0).toDouble })
    for (p <- wl.timed) {
      out("lower.alloc_kb") += alloc(Lower.lower(p.df, cat)) / 1024
      val ir0 = Lower.lower(p.df, cat)
      val levelMs = 0.0 +: (1 to 4).map { l =>
        median((1 to Repeats).map { _ =>
          val t0 = System.nanoTime()
          Trace.within(p.name, "optimizer")(Trace.span(s"optimizer.o$l")(Optimizer.optimize(ir0, cat, l)))
          msSince(t0)
        })
      }
      (1 to 4).foreach(l => out(s"optimizer.o${l}_ms") += levelMs(l) - levelMs(l - 1))
      out("optimizer.alloc_kb") += alloc(Optimizer.optimize(ir0, cat, 4)) / 1024
    }
    Counts.of(wl.timed).foreach { case (k, v) => out(k) += v.toDouble }
    out.toMap
  }

  /** MiniPandas, the "Python" baseline: total ms of one run per timed
    * program, and each result checked against its reference. */
  def miniPandas(e: Engines, wl: Workload): (Double, Seq[Measure.Check]) = {
    val tables = e.frames.map { case (n, df) =>
      n -> MiniPandas.Table(df.columns.toVector, df.collect().toVector.map(_.toSeq.toArray)) }
    val timed = wl.timed.map(_.name).toSet
    val results = wl.programs.zipWithIndex.filter(pi => timed(pi._1.name)).map { case (p, i) =>
      val t0 = System.nanoTime()
      val t = Trace.within(p.name, "minipandas")(Trace.span("minipandas")(MiniPandas.run(p.df, tables)))
      val ms = msSince(t0)
      val check =
        try { Oracle.assertRowsEquivalentOn(e.duck, t.schema, t.rows.map(_.toSeq), Measure.reference(i)); None }
        catch { case x: Throwable if NonFatal(x) => Some(Measure.message(x)) }
      (ms, Measure.Check(p.name, "minipandas", check.isEmpty, check.getOrElse(""), runnable = true, ms / 1000))
    }
    (results.map(_._1).sum, results.map(_._2))
  }

  /** Total collection time (ms) and count of all garbage collectors. */
  def gc(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }
}
