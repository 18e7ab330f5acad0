package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import Measure._

/** Benchmark entry point: one run of one workload.
  *
  * `--workload tpch|datasci --seed S --seconds T --trace 0|1 --root DIR
  *  --work DIR --threads N --result FILE [--git-sha X --source-hash Y]
  *  [--inputs-only 1]`
  *
  * With `--inputs-only 1`, the JVM only makes sure the workload's inputs for
  * the seed are in the cache, generating them if they are not, and exits.
  * Generation runs in that JVM of its own, so that a run's set-up is measured
  * the same way whether or not its inputs were just generated.
  *
  * A run loads the cached generated inputs into DuckDB while Spark starts
  * and reads them on another thread. It checks every program × path result
  * against the program's reference result, and then times rounds of the
  * DuckDB paths and the O4 compile for `T` seconds. With `--trace 1`, each
  * sample is also taken with spans around each layer call, the Spark paths
  * are checked and timed for another `T` seconds, and the run reports the
  * per-layer metrics instead of the end-to-end ones. The result is written
  * as JSON to `--result`.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        root: File, work: File, threads: Int, result: File,
                        gitSha: String, sourceHash: String, inputsOnly: Boolean)

  private def parse(argv: Array[String]): Args = {
    require(argv.length % 2 == 0, "arguments come in --name value pairs")
    val m = argv.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), s"unexpected argument $k"); k.drop(2) -> v }.toMap
    def get(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    val wl = Workloads.all.find(_.name == get("workload"))
      .getOrElse(sys.error(s"unknown workload ${get("workload")}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = get("trace") match { case "0" => false; case "1" => true; case t => sys.error(s"--trace $t") }
    val seconds = get("seconds").toInt
    val threads = get("threads").toInt
    require(seconds >= 1 && threads >= 1, "--seconds and --threads must be positive")
    Args(wl, get("seed").toLong, seconds, trace, new File(get("root")), new File(get("work")),
      threads, new File(get("result")), m.getOrElse("git-sha", "unknown"), m.getOrElse("source-hash", "unknown"),
      m.get("inputs-only").contains("1"))
  }

  private def session(a: Args): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${a.threads}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(a.work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(a.work, "spark-warehouse").getPath)
      .config("spark.sql.shuffle.partitions", a.threads.toLong)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  val SetupRounds = 3

  /** `SetupRounds` timed runs of `f`: the median time and the last result. */
  private def rounds[A](f: => A): (Double, A) = {
    val rs = (1 to SetupRounds).map { _ => val t0 = System.nanoTime(); val x = f; (secondsSince(t0), x) }
    (median(rs.map(_._1)), rs.last._2)
  }

  // ----------------------------------------------------------------- output
  private def json(v: Any): String = v match {
    case null                     => "null"
    case s: String                => "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"; case '\t' => "\\t"
        case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString } + "\""
    case b: Boolean               => b.toString
    case d: Double                => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                   => n.toString
    case n: Long                  => n.toString
    case m: scala.collection.Map[_, _] => m.map { case (k, x) => json(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]          => xs.map(json).mkString("[", ", ", "]")
    case x                        => json(x.toString)
  }

  /** Spark's threads outlive `main`, so the JVM exits explicitly, with 1
    * when the run failed. */
  def main(argv: Array[String]): Unit = {
    val code = try { run(argv); 0 } catch {
      case t: Throwable => t.printStackTrace(); 1
    }
    System.exit(code)
  }

  private def run(argv: Array[String]): Unit = {
    val a = parse(argv)
    val wl = a.workload
    val cacheDir = new File(a.work, "inputs")
    cacheDir.mkdirs()
    val dir = Inputs.entryDir(cacheDir, wl, Workloads.SF, a.seed, Inputs.generatorVersion(a.root))
    def startSpark(): (SparkSession, Double) = {
      val t0 = System.nanoTime()
      val s = session(a)
      (s, secondsSince(t0))
    }
    if (a.inputsOnly) {
      if (Inputs.verified(dir, wl.tables).isEmpty) {
        val spark = startSpark()._1
        try Inputs.fill(spark, wl, Workloads.SF, a.seed, dir, a.threads) finally spark.stop()
      }
      return
    }
    val entry = Inputs.verified(dir, wl.tables)
      .getOrElse(sys.error(s"no complete inputs in $dir: generate them first with --inputs-only 1"))
    Inputs.touch(entry)

    var previous: Option[java.sql.Connection] = None
    val (duckLoadS, duck) = rounds {
      previous.foreach(_.close())
      previous = Some(Inputs.loadDuck(entry, a.work))
      previous.get
    }

    // Spark starts and reads the inputs on another thread while this one
    // checks DuckDB; it must finish before any timing starts. The Spark
    // paths run only in the traced run: on a shared 4-core machine their
    // run-to-run spread (IQR/median over 10 runs: 0.36-0.50 on tpch) is
    // wider than any bound a gated metric may have. There, this thread also
    // runs each Spark path twice, untimed, since a query's first runs are slow.
    val SparkWarmups = 2
    val sparkReady = {
      val pool = java.util.concurrent.Executors.newSingleThreadExecutor()
      type Ready = (Engines, Double, Double)
      try pool.submit(new java.util.concurrent.Callable[Ready] {
        def call(): Ready = {
          val (s, sessionS) = startSpark()
          val t0 = System.nanoTime()
          val frames = Inputs.loadSpark(s, entry)
          val loadS = secondsSince(t0)
          val e = Engines(duck, a.threads, Some((s, frames)))
          if (a.trace) for (_ <- 1 to SparkWarmups; p <- wl.timed; path <- Paths.sparkPaths if path.applies(p))
            try path.run(e, p) catch { case t: Throwable if scala.util.control.NonFatal(t) => () } // checked later
          (e, sessionS, loadS)
        }
      }) finally pool.shutdown()
    }

    val refErrors = Measure.references(Engines(duck, a.threads), wl)
    val duckChecks = checkAll(Engines(duck, a.threads), wl, Paths.duckPaths, refErrors)
    for (_ <- 1 to CompileRepeats; p <- wl.timed) Paths.duckSql(p, 4) // compiler warm-up
    val (e, sessionS, sparkLoadS) = sparkReady.get()
    val s = e.spark
    val gc0 = Layers.gc()
    val (duckOff, duckOn) = window(e, wl, Paths.duckPaths, runnable(duckChecks), withCompile = true, a.seconds,
      if (a.trace) Some(identity[Path] _) else None)
    val gc1 = Layers.gc()

    val sparkChecks = if (a.trace) checkAll(e, wl, Paths.sparkPaths, refErrors) else Nil
    val probe = if (a.trace) Some(new Layers.SparkProbe(s.sparkContext)) else None
    val gc2 = Layers.gc()
    val (sparkOff, sparkOn) = probe.fold((Samples(Map.empty, Map.empty, 0, 0.0), Option.empty[Samples])) { p =>
      window(e, wl, Paths.sparkPaths, runnable(sparkChecks), withCompile = false, a.seconds, Some(p.twin _))
    }
    val gc3 = Layers.gc()

    // The verdict covers the timed programs; a known defect is reported
    // beside it, with its check results, whichever way they come out.
    val allChecks = duckChecks ++ sparkChecks
    val (defectChecks, checks) = allChecks.partition(c => wl.knownDefects.contains(c.program))
    val failed = checks.count(!_.ok)
    checks.filterNot(_.ok).foreach(c => println(s"FAILED ${c.program} ${c.path}: ${c.error}"))
    for ((prog, why) <- wl.knownDefects.toSeq.sorted) {
      val cs = defectChecks.filter(_.program == prog)
      println(s"known defect $prog, checked but not timed: $why")
      cs.foreach(c => println(s"  ${c.path}: " + (if (c.ok) "right answer" else s"WRONG: ${c.error}")))
      if (cs.nonEmpty && cs.forall(_.ok)) println(s"  $prog gave the right answer on every path in this run")
    }
    println(f"set-up: Spark session ${sessionS}%.2f s, DuckDB load ${duckLoadS}%.2f s, Spark inputs ${sparkLoadS}%.2f s; " +
      f"the inputs were generated in ${Inputs.generationSeconds(entry)}%.2f s")
    println(f"checked ${checks.size} program × path results in ${checks.map(_.seconds).sum}%.1f s; " +
      f"timed ${duckOff.rounds} DuckDB rounds in ${duckOff.seconds}%.1f s and ${sparkOff.rounds} Spark rounds in ${sparkOff.seconds}%.1f s; " +
      f"${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%.1f s since start")

    val e2e = duckOff.endToEnd + ("setup_s" -> (sessionS + duckLoadS + sparkLoadS))
    val rows = for (((prog, path), xs) <- (duckOff.path ++ sparkOff.path).toSeq.sortBy(_._1)) yield {
      val (label, t) = tail(xs)
      val ok = checks.find(c => c.program == prog && c.path == path).forall(_.ok)
      Map("program" -> prog, "path" -> path, "ok" -> ok, "median_ms" -> median(xs), "tail" -> label,
        "tail_ms" -> t, "n" -> xs.size)
    }
    rows.foreach(r => println(f"row ${r("program")}%-22s ${r("path")}%-12s ok=${r("ok")}%-5s median=${r("median_ms").asInstanceOf[Double]}%9.2f ms ${r("tail")}=${r("tail_ms").asInstanceOf[Double]}%9.2f ms n=${r("n")}"))

    var miniChecks = Seq.empty[Check]
    val layers: Map[String, Double] = if (!a.trace) Map.empty else {
      val out = mutable.LinkedHashMap.empty[String, Double]
      def sumMedian(span: String, path: String): Double = Trace.durations(span, path).values.map(median).sum
      out("lower.ms") = sumMedian("lower", "duck_o4_t1")
      out("sqlgen.ms") = sumMedian("sqlgen", "duck_o4_t1")
      out("duck.prepare_ms") = sumMedian("duck.prepare", "duck_o4_t1")
      out("duck.execute_ms") = sumMedian("duck.execute", "duck_o4_t1")
      out("sparkgen.build_ms") = sumMedian("sparkgen", "sparkgen_o4")
      out ++= probe.get.metrics
      out ++= sparkOff.endToEnd
      Trace.enabled = true
      try out ++= Layers.compiler(wl) finally Trace.enabled = false
      val o4 = Paths.duckPaths.head
      o4.prepare(e)
      out("duck.rows_out") = wl.timed.filter(p => runnable(checks)((p.name, o4.name))).map(p => o4.run(e, p).toDouble).sum
      for (level <- Seq(0, 4))
        out(s"duck.operator_rows.o$level") = wl.timed.map(p => Layers.operatorRows(e, Paths.duckSql(p, level), a.work).toDouble).sum
      val (miniMs, mini) = Layers.miniPandas(e, wl)
      miniChecks = mini
      out("minipandas.ms") = miniMs
      out("setup.spark_session_s") = sessionS
      out("setup.duck_load_s") = duckLoadS
      out("setup.datagen_s") = Inputs.generationSeconds(entry)
      val windowS = duckOff.seconds + sparkOff.seconds
      out("jvm.gc_ms") = (gc1._1 - gc0._1 + gc3._1 - gc2._1) / windowS
      out("jvm.gc_count") = (gc1._2 - gc0._2 + gc3._2 - gc2._2) / windowS
      val on = duckOn.get.endToEnd ++ sparkOn.get.endToEnd
      val off = duckOff.endToEnd ++ sparkOff.endToEnd
      val ms = on.keys.toSeq
      out("trace.overhead_pct") = 100.0 * (geomean(ms.map(on)) / geomean(ms.map(off)) - 1)
      out.toMap
    }

    val (e2eSpec, layerSpec) = readSpec(a.root)
    val metrics = (if (a.trace) layerSpec else e2eSpec).map { case (n, unit) =>
      val v = (if (a.trace) layers.get(n) else e2e.get(n)).getOrElse(sys.error(s"metric $n was not measured"))
      n -> Map("value" -> v, "unit" -> unit)
    }
    metrics.foreach { case (n, m) => println(f"metric $n%-28s ${m("value").asInstanceOf[Double]}%14.4f ${m("unit")}") }
    val attempted = checks.size
    val allFailed = allChecks.count(!_.ok)
    val inDefects = if (wl.knownDefects.isEmpty) "" else
      s"; ${allFailed - failed} of them in the known defects ${wl.knownDefects.keys.toSeq.sorted.mkString(", ")}, $failed of $attempted in the timed programs"
    println(f"fail_ratio ${allFailed.toDouble / allChecks.size}%.4f ratio ($allFailed of ${allChecks.size} program × path results threw or differ " +
      s"from the reference SQL$inDefects)")

    val provenance = Map(
      "git_sha" -> a.gitSha, "source_sha256" -> a.sourceHash, "nproc" -> Runtime.getRuntime.availableProcessors,
      "threads_N" -> a.threads, "sf" -> Workloads.SF, "seed" -> a.seed, "workload" -> wl.name, "why" -> wl.why,
      "spark_version" -> s.version, "duckdb_version" -> duckVersion(e),
      "spark.sql.shuffle.partitions" -> s.conf.get("spark.sql.shuffle.partitions"),
      "run_seconds" -> a.seconds, "duck_rounds" -> duckOff.rounds, "spark_rounds" -> sparkOff.rounds,
      "inputs" -> entry.dir.getName)
    val full = Map(
      "provenance" -> provenance,
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "fail_ratio" -> allFailed.toDouble / allChecks.size,
      "known_defects" -> wl.knownDefects.map { case (prog, why) =>
        prog -> Map("why" -> why, "checks" -> defectChecks.filter(_.program == prog).map(c =>
          Map("path" -> c.path, "ok" -> c.ok, "error" -> c.error))) },
      "checks" -> (checks ++ miniChecks).map(c => Map("program" -> c.program, "path" -> c.path, "ok" -> c.ok,
        "error" -> c.error, "seconds" -> c.seconds)),
      "rows" -> rows, "metrics" -> metrics.toMap,
      "layers" -> Trace.selfTimes.map { case (n, c, tot, self) => Map("span" -> n, "calls" -> c, "total_ms" -> tot, "self_ms" -> self) },
      "spans" -> Trace.spans.map(sp => Map("id" -> sp.id, "parent" -> sp.parent, "name" -> sp.name, "program" -> sp.program,
        "path" -> sp.path, "start_ns" -> sp.startNs, "end_ns" -> sp.endNs)))
    Files.write(a.result.toPath, json(full).getBytes(UTF_8))
    e.duck.close()
    s.stop()
  }

  private def runnable(checks: Seq[Check]): Set[(String, String)] =
    checks.filter(_.runnable).map(c => (c.program, c.path)).toSet

  private def duckVersion(e: Engines): String = {
    val rs = e.duck.createStatement().executeQuery("SELECT version()"); rs.next(); rs.getString(1)
  }

  /** The end-to-end and per-layer metric names and units in BENCHMARK.json. */
  private def readSpec(root: File): (Seq[(String, String)], Seq[(String, String)]) = {
    val node = new com.fasterxml.jackson.databind.ObjectMapper().readTree(new File(root, "BENCHMARK.json"))
    def list(k: String) = node.get(k).elements.asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq
    (list("end_to_end"), list("per_layer"))
  }
}
