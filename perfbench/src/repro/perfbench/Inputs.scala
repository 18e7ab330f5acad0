package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, StandardCopyOption}
import java.security.MessageDigest
import java.sql.Connection
import java.util.concurrent.Executors
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle

/** Generated input tables, cached as Parquet under the run's work directory.
  *
  * A cache entry is keyed by workload, scale factor, seed and generator
  * version (a hash of the generator sources), so a changed generator or
  * seed never reads old files. An entry is used only when its manifest,
  * written last, lists at least one part file per table and every listed
  * file is present with its recorded size; otherwise it is generated again.
  */
object Inputs {
  private val KeepEntries = 24

  def generatorVersion(root: File): String = {
    val md = MessageDigest.getInstance("SHA-256")
    md.update("seed = run seed * 1000 + generator default".getBytes(UTF_8))
    val dir = new File(root, "src/main/scala/repro/data")
    val files = Option(dir.listFiles()).getOrElse(Array.empty[File]).filter(_.getName.endsWith(".scala")).sortBy(_.getName)
    require(files.nonEmpty, s"no generator sources under $dir")
    files.foreach { f => md.update(f.getName.getBytes(UTF_8)); md.update(Files.readAllBytes(f.toPath)) }
    md.digest().take(6).map("%02x".format(_)).mkString
  }

  final case class Entry(dir: File, files: Map[String, Seq[File]])

  private def manifest(dir: File) = new File(dir, "MANIFEST.tsv")

  /** The entry at `dir` if it is complete for `tables`. */
  def verified(dir: File, tables: Set[String]): Option[Entry] = {
    val m = manifest(dir)
    if (!m.isFile || !new File(dir, GeneratedIn).isFile) return None
    val rows = new String(Files.readAllBytes(m.toPath), UTF_8).linesIterator.map(_.split('\t')).toSeq
    val ok = rows.forall(r => r.length == 3 && { val f = new File(dir, r(1)); f.isFile && f.length == r(2).toLong })
    val files = rows.groupBy(_(0)).map { case (t, rs) => t -> rs.map(r => new File(dir, r(1))) }
    if (ok && files.keySet == tables && files.values.forall(_.nonEmpty)) Some(Entry(dir, files)) else None
  }

  /** Write every table of `wl` at (`sf`, `seed`) as Parquet into `dir`,
    * `threads` tables at a time, then its manifest. */
  private def generate(spark: SparkSession, wl: Workload, sf: Double, seed: Long, dir: File, threads: Int): Unit = {
    val tables = wl.generate(spark, sf, Workloads.tableSeed(seed))
    require(tables.keySet == wl.tables, s"generator tables ${tables.keySet} differ from ${wl.tables}")
    val pool = Executors.newFixedThreadPool(threads)
    try {
      tables.map { case (n, df) =>
        pool.submit(new Runnable { def run(): Unit = df.write.parquet(new File(dir, n).getPath) })
      }.foreach(_.get())
    } finally pool.shutdown()
    val files = tables.keys.toSeq.sorted.map { n =>
      n -> new File(dir, n).listFiles().filter(f => f.getName.startsWith("part-") && f.getName.endsWith(".parquet")).sortBy(_.getName).toSeq
    }
    val text = files.flatMap { case (n, fs) => fs.map(f => s"$n\t$n/${f.getName}\t${f.length}\n") }.mkString
    Files.write(manifest(dir).toPath, text.getBytes(UTF_8))
  }

  /** The cache directory of (`wl`, `sf`, `seed`, generator `version`). */
  def entryDir(cacheDir: File, wl: Workload, sf: Double, seed: Long, version: String): File =
    new File(cacheDir, s"${wl.name}-sf$sf-seed$seed-gen$version")

  /** Generate the entry at `dir` (replacing anything there) through a
    * temporary directory that is renamed into place once complete, and
    * record how long generation took. */
  def fill(spark: SparkSession, wl: Workload, sf: Double, seed: Long, dir: File, threads: Int): Entry = {
    val cacheDir = dir.getParentFile
    val tmp = new File(cacheDir, s"${dir.getName}.tmp${ProcessHandle.current.pid}")
    delete(tmp); delete(dir)
    val t0 = System.nanoTime()
    generate(spark, wl, sf, seed, tmp, threads)
    Files.write(new File(tmp, GeneratedIn).toPath, ((System.nanoTime() - t0) / 1e9).toString.getBytes(UTF_8))
    Files.move(tmp.toPath, dir.toPath, StandardCopyOption.ATOMIC_MOVE)
    evict(cacheDir, wl.name, keep = dir)
    verified(dir, wl.tables).getOrElse(sys.error(s"inputs in $dir are incomplete after generation"))
  }

  private val GeneratedIn = "GENERATED_IN_SECONDS"

  /** How long generating `e` took, measured when it was generated. */
  def generationSeconds(e: Entry): Double =
    new String(Files.readAllBytes(new File(e.dir, GeneratedIn).toPath), UTF_8).trim.toDouble

  /** Mark `e` as just used, so eviction keeps it. */
  def touch(e: Entry): Unit = e.dir.setLastModified(System.currentTimeMillis())

  private def evict(cacheDir: File, workload: String, keep: File): Unit =
    cacheDir.listFiles().filter(f => f.isDirectory && f.getName.startsWith(workload + "-") && f != keep)
      .sortBy(-_.lastModified).drop(KeepEntries - 1).foreach(delete)

  def delete(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(delete))
    f.delete()
  }

  /** A fresh in-memory DuckDB database holding every table of `e`. */
  def loadDuck(e: Entry, work: File): Connection = {
    val c = Oracle.connect()
    val st = c.createStatement()
    st.execute(s"SET temp_directory = '${new File(work, "duck-tmp").getPath}'")
    e.files.foreach { case (n, fs) =>
      st.execute(s"CREATE TABLE $n AS SELECT * FROM read_parquet([${fs.map(f => s"'${f.getPath}'").mkString(", ")}])")
    }
    st.close()
    c
  }

  /** Spark frames over the Parquet files of `e`, also registered as views. */
  def loadSpark(spark: SparkSession, e: Entry): Map[String, DataFrame] =
    e.files.map { case (n, fs) =>
      val df = spark.read.parquet(fs.map(_.getPath): _*)
      df.createOrReplaceTempView(n)
      n -> df
    }
}
