package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** In-memory spans around the benchmark's calls into each layer.
  *
  * Tracing is off unless [[enabled]] is set; then [[span]] only runs its
  * body, so the untraced measurement pays one flag test per call. Spans are
  * kept in memory and written out once, at the end of the run.
  */
object Trace {
  final case class Span(id: Int, parent: Int, name: String, program: String, path: String,
                        startNs: Long, endNs: Long) {
    def ms: Double = (endNs - startNs) / 1e6
  }

  @volatile var enabled = false
  val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var context = ("", "")

  /** Attribute the spans opened by `f` to one program and path. */
  def within[A](program: String, path: String)(f: => A): A = {
    val saved = context
    context = (program, path)
    try f finally context = saved
  }

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = spans.size
      spans += null // reserve the slot so ids follow start order
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try f
      finally {
        spans(id) = Span(id, parent, name, context._1, context._2, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Durations of the spans named `name` on `path`, by program. */
  def durations(name: String, path: String): Map[String, Seq[Double]] =
    spans.iterator.filter(s => s.name == name && s.path == path).toSeq
      .groupBy(_.program).map { case (p, ss) => p -> ss.map(_.ms) }

  /** Per span name: call count, total time and self time (total minus the
    * time its direct children cover), in ms. */
  def selfTimes: Seq[(String, Int, Double, Double)] = {
    val childMs = new Array[Double](spans.size)
    spans.foreach(s => if (s.parent >= 0) childMs(s.parent) += s.ms)
    spans.groupBy(_.name).toSeq.sortBy(_._1).map { case (n, ss) =>
      (n, ss.size, ss.map(_.ms).sum, ss.map(s => s.ms - childMs(s.id)).sum)
    }
  }
}
