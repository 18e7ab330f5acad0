package repro.perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Checking results and timing samples. */
object Measure {

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def geomean(xs: Iterable[Double]): Double = math.exp(xs.map(x => math.log(math.max(x, 1e-9))).sum / xs.size)

  /** The highest percentile with at least ten samples beyond it, or the
    * maximum when there are too few samples for one. */
  def tail(xs: Seq[Double]): (String, Double) = {
    val s = xs.sorted; val n = s.size
    if (n <= 10) ("max", s.last)
    else { val k = n - 10; (f"p${100.0 * k / n}%.0f", s(k - 1)) }
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  def msSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  def message(t: Throwable): String =
    Option(t.getMessage).getOrElse(t.toString).linesIterator.take(3).mkString(" | ")

  // ------------------------------------------------------------------ check
  /** `runnable` is false only when the path threw, so it cannot be timed. */
  final case class Check(program: String, path: String, ok: Boolean, error: String,
                         runnable: Boolean, seconds: Double)

  /** The query that reads program `i`'s reference result. */
  def reference(i: Int): String = s"SELECT * FROM perfbench_ref_$i"

  /** Run each program's reference SQL once, on one DuckDB thread, into a
    * temporary table; the error, for a program whose reference failed. */
  def references(e: Engines, wl: Workload): Map[Int, String] = {
    Paths.setThreads(e, 1)
    wl.programs.zipWithIndex.flatMap { case (p, i) =>
      val st = e.duck.createStatement()
      try { st.execute(s"CREATE OR REPLACE TEMP TABLE perfbench_ref_$i AS ${p.refSql}"); None }
      catch { case t: Throwable if NonFatal(t) => Some(i -> ("reference SQL failed: " + message(t))) }
      finally st.close()
    }.toMap
  }

  /** Run every program on each of `paths` once and compare the result with
    * its reference. A mismatch stays in the timed set, so fixing a wrong
    * answer does not change what is averaged; only a path that throws is
    * left out. */
  def checkAll(e: Engines, wl: Workload, paths: Seq[Path], refErrors: Map[Int, String]): Seq[Check] =
    for ((p, i) <- wl.programs.zipWithIndex; path <- paths if path.applies(p)) yield {
      path.prepare(e)
      val t0 = System.nanoTime()
      try {
        refErrors.get(i).foreach(m => sys.error(m))
        path.check(e, p, reference(i))
        Check(p.name, path.name, ok = true, "", runnable = true, secondsSince(t0))
      } catch {
        case t: Throwable if NonFatal(t) =>
          val runs = try { path.run(e, p); true } catch { case u: Throwable if NonFatal(u) => false }
          Check(p.name, path.name, ok = false, message(t), runs, secondsSince(t0))
      }
    }

  // ----------------------------------------------------------------- timing
  /** Times in ms by (program, path), and of the O4 compile by program. */
  final case class Samples(path: Map[(String, String), Seq[Double]], compile: Map[String, Seq[Double]],
                           rounds: Int, seconds: Double) {
    /** Per path, the geometric mean over programs of each program's median. */
    def endToEnd: Map[String, Double] =
      path.groupBy(_._1._2).map { case (p, byProg) => s"${p}_ms" -> geomean(byProg.values.map(median)) } ++
        (if (compile.isEmpty) Map.empty else Map("compile_o4_ms" -> geomean(compile.values.map(median))))
  }

  val CompileRepeats = 10

  /** Time rounds of every runnable timed program on each of `paths` (and, with
    * `withCompile`, of the O4 DuckDB compile alone, `CompileRepeats` times)
    * until `seconds` have passed, and at least one full round; the last
    * round stops at the first program that starts late. With `twins`, every
    * sample is taken twice, once with tracing off and once with it on
    * through the path's traced twin, in alternating order, so that both
    * sets see the same warm-up and the same machine. */
  def window(e: Engines, wl: Workload, paths: Seq[Path], runnable: Set[(String, String)], withCompile: Boolean,
             seconds: Double, twins: Option[Path => Path]): (Samples, Option[Samples]) = {
    final class Acc {
      val path = mutable.Map.empty[(String, String), mutable.ArrayBuffer[Double]]
      val comp = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
      def samples(rounds: Int, s: Double) =
        Samples(path.toMap.map { case (k, v) => k -> v.toSeq }, comp.toMap.map { case (k, v) => k -> v.toSeq }, rounds, s)
    }
    val off = new Acc
    val on = new Acc
    def sample(tracing: Boolean)(f: => Unit): Double = {
      Trace.enabled = tracing
      val t0 = System.nanoTime()
      try f finally Trace.enabled = false
      msSince(t0)
    }
    val start = System.nanoTime()
    var rounds = 0
    def more = rounds == 0 || secondsSince(start) < seconds
    while (more) {
      val modes = if (twins.isEmpty) Seq(false) else if (rounds % 2 == 0) Seq(false, true) else Seq(true, false)
      for (p <- wl.timed if more) {
        for (pa <- paths if runnable((p.name, pa.name)); tracing <- modes) {
          val run = if (tracing) twins.get(pa) else pa
          run.prepare(e)
          val ms = sample(tracing)(Trace.within(p.name, pa.name)(Trace.span(pa.name)(run.run(e, p))))
          (if (tracing) on else off).path.getOrElseUpdate((p.name, pa.name), mutable.ArrayBuffer.empty) += ms
        }
        if (withCompile) for (_ <- 1 to CompileRepeats; tracing <- modes) {
          val ms = sample(tracing)(Trace.within(p.name, "compile_o4")(Trace.span("compile_o4")(Paths.duckSql(p, 4))))
          (if (tracing) on else off).comp.getOrElseUpdate(p.name, mutable.ArrayBuffer.empty) += ms
        }
      }
      rounds += 1
    }
    val s = secondsSince(start)
    (off.samples(rounds, s), twins.map(_ => on.samples(rounds, s)))
  }
}
