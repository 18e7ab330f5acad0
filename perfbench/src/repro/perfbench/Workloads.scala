package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Catalog
import repro.data.{NotebookData, TpchData}
import repro.frontend.Dsl
import repro.workloads.{Hybrid, Notebooks, Tpch}

/** One DSL program with the hand-written reference SQL its results are
  * checked against. `onSpark` marks the programs also run on the two Spark
  * paths (see [[Workloads]]). */
final case class Program(name: String, df: Dsl.Df, refSql: String, onSpark: Boolean)

/** A workload: its programs, the base tables they read, and a generator
  * for those tables at a scale factor, given the table seed for each
  * generator's default seed. `knownDefects` names the programs that give a
  * wrong answer on some path, with the defect: they are checked on every
  * path in every run and reported, but not timed and not counted in the
  * run's verdict, so that every timed operation gives a right answer. */
final case class Workload(name: String, why: String, programs: Vector[Program], tables: Set[String],
                          generate: (SparkSession, Double, Long => Long) => Map[String, DataFrame],
                          knownDefects: Map[String, String] = Map.empty) {
  /** The programs whose times make up the metrics. */
  def timed: Vector[Program] = programs.filterNot(p => knownDefects.contains(p.name))
}

object Workloads {
  val SF = 0.1

  val catalog: Catalog = Catalog(
    TpchData.catalog.schemas ++ NotebookData.catalog.schemas,
    TpchData.catalog.uniqueCols ++ NotebookData.catalog.uniqueCols,
    TpchData.catalog.matrixCols ++ NotebookData.catalog.matrixCols)

  // On a 4-core machine Spark pays 0.3-2 s per query at SF 0.1, and 2-6 s
  // for a query's first run, so every program on both Spark paths would not
  // fit a traced run, the only run that times Spark. Each workload times two
  // programs on Spark: a scan-aggregate (Q1) and a three-way join (Q3); an
  // einsum pipeline (CrimeIndex) and a pivot (BirthAnalysis). Q20 is also
  // checked on Spark, so that its wrong answer shows on every O4 path.
  // Longer Spark queries, such as the hybrid joins, still speed up over their
  // first ten runs, which makes a few samples of them too noisy to compare.
  private val tpchOnSpark    = Set(1, 3, 20)
  private val datasciOnSpark = Set("CrimeIndex", "BirthAnalysis")

  val tpch: Workload = Workload("tpch",
    "The TPC-H queries: join and aggregate work where engine execution dominates, no einsum, and where O4 loses to O0 today (Q9, Q18).",
    Tpch.all.map(q => Program(s"Q${q.id}", q.build(catalog), q.refSql, tpchOnSpark(q.id))),
    TpchData.catalog.schemas.keySet,
    (spark, sf, seed) => Map(
      "lineitem" -> TpchData.lineitem(spark, sf, seed(0)),
      "orders"   -> TpchData.orders(spark, sf, seed(1)),
      "customer" -> TpchData.customer(spark, sf, seed(2)),
      "part"     -> TpchData.part(spark, sf, seed(5)),
      "supplier" -> TpchData.supplier(spark, sf, seed(6)),
      "partsupp" -> TpchData.partsupp(spark, sf, seed(7)),
      "nation"   -> TpchData.nation(spark),
      "region"   -> TpchData.region(spark)),
    Map(
      "Q15" -> ("At O4 on DuckDB with N threads it often returns no row: the O4 SQL refers twice to a CTE " +
        "of each supplier's float SUM of revenue and keeps the rows equal to its MAX; DuckDB computes the " +
        "CTE once per reference, and at N threads the two sums, added in different orders, can differ in " +
        "their last bits."),
      "Q20" -> "At O4 it returns wrong rows on every path, at every seed (the tier-1 tests fail on it too)."))

  val datasci: Workload = Workload("datasci",
    "The notebook and hybrid programs: einsum, UID and pivot lowering where the O2/O3 passes do most of their work, many short queries, and a 100k-row result to drain.",
    (Notebooks.all ++ Hybrid.all).map(w => Program(w.name, w.build(catalog), w.refSql, datasciOnSpark(w.name))),
    NotebookData.catalog.schemas.keySet,
    (spark, sf, seed) => Map(
      "crimes"         -> NotebookData.crimes(spark, sf, seed(20)),
      "crime_weights"  -> NotebookData.crimeWeights(spark),
      "births"         -> NotebookData.births(spark, sf, seed(30)),
      "flights"        -> NotebookData.flights(spark, sf, seed(40)),
      "salaries"       -> NotebookData.salaries(spark, sf, seed(50)),
      "hybrid_a"       -> NotebookData.hybridA(spark, sf, seed(60)),
      "hybrid_b"       -> NotebookData.hybridB(spark, sf, seed(70)),
      "hybrid_weights" -> NotebookData.hybridWeights(spark)))

  val all: Seq[Workload] = Seq(tpch, datasci)

  /** The generators' own per-table seed for workload seed `s`: seed 0 gives
    * exactly the generators' defaults. */
  def tableSeed(s: Long)(default: Long): Long = s * 1000 + default
}
