package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.data.{NotebookData, TpchData}
import repro.workloads.{Hybrid, Notebooks, Tpch}
import TondIR._

/** Feature-level TondIR → SQL tests, executed on DuckDB over tiny inline
  * tables (§III-E: CTE chaining, sort/limit placement, UID windows,
  * VALUES relations, exists, outer joins, dialect quirks). The `exists`
  * cases also run through SparkGen against the same expected SQL. */
class SqlGenSpec extends SparkSpec {

  private val cat = Catalog.empty
    .withTable("t", Vector("k", "s", "x"), unique = Set("k"))
    .withTable("u", Vector("k", "y"))
    .withTable("ps", Vector("k", "pk", "q"))
    .withTable("pt", Vector("pk", "name"))

  private lazy val inputs: Map[String, DataFrame] = Map(
    "t"  -> spark.createDataFrame(Seq((1L, "a", 10.0), (2L, "b", 20.0), (3L, "a", 30.0), (4L, "c", 40.0))),
    "u"  -> spark.createDataFrame(Seq((1L, 1.5), (1L, 2.5), (3L, 3.5), (9L, 9.9))),
    "ps" -> spark.createDataFrame(Seq((1L, 10L, 6.0), (2L, 20L, 15.0), (2L, 10L, 1.0), (3L, 10L, 20.0), (4L, 30L, 50.0))),
    "pt" -> spark.createDataFrame(Seq((10L, "green"), (20L, "red"), (30L, "gold")))
  ).map { case (n, df) => n -> df.toDF(cat.schema(n): _*) }

  private lazy val duck = {
    val c = Oracle.connect()
    inputs.foreach { case (n, df) => Oracle.loadTable(c, n, df) }
    c
  }

  private def run(p: Program, expected: String): Unit =
    Oracle.assertSqlEquivalent(duck, SqlGen.programSql(p, cat, SqlGen.DuckDialect), expected)

  /** DuckDB SQL and the SparkGen plan both match `expected`. */
  private def runBoth(p: Program, expected: String): Unit = {
    run(p, expected)
    Oracle.assertEquivalentOn(duck, SparkGen.compile(p, inputs, cat, spark), expected)
  }

  private def v(n: String) = TVar(n)

  test("single rule: filter + computed column") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "d" -> v("d"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             PredAtom(TBin(">", v("x"), TConst(15.0))),
             AssignAtom("d", TBin("*", v("x"), TConst(2.0)))))
    run(Program(Vector(r), "r"), "SELECT k, x*2 AS d FROM t WHERE x > 15")
  }

  test("CTE chain: each non-final rule becomes a WITH clause") {
    val r1 = Rule(Head("f", Vector("k" -> v("k"), "x" -> v("x"))),
      Vector(RelAtom("t", Vector("k", "s", "x")), PredAtom(TBin(">", v("x"), TConst(10.0)))))
    val r2 = Rule(Head("g", Vector("n" -> v("n"))),
      Vector(RelAtom("f", Vector("k2", "x2")), AssignAtom("n", TAgg("count", TConst(1L)))))
    val sql = SqlGen.programSql(Program(Vector(r1, r2), "g"), cat, SqlGen.DuckDialect)
    assert(sql.startsWith("WITH f(k, x) AS"))
    run(Program(Vector(r1, r2), "g"), "SELECT COUNT(*) AS n FROM t WHERE x > 10")
  }

  test("join via repeated variable becomes JOIN ... ON") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "y" -> v("y"))),
      Vector(RelAtom("t", Vector("k", "s", "x")), RelAtom("u", Vector("k", "y"))))
    val sql = SqlGen.programSql(Program(Vector(r), "r"), cat, SqlGen.DuckDialect)
    assert(sql.contains("JOIN u AS t2 ON"))
    run(Program(Vector(r), "r"), "SELECT t.k AS k, y FROM t JOIN u ON t.k = u.k")
  }

  test("group + having (aggregate predicate)") {
    val r = Rule(Head("r", Vector("s" -> v("s"), "tot" -> v("tot")), group = Vector("s")),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             AssignAtom("tot", TAgg("sum", v("x"))),
             PredAtom(TBin(">", TAgg("sum", v("x")), TConst(15.0)))))
    run(Program(Vector(r), "r"),
      "SELECT s, SUM(x) AS tot FROM t GROUP BY s HAVING SUM(x) > 15")
  }

  test("sort + limit live in the final SELECT (not a CTE)") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "x" -> v("x")),
                      sort = Vector(("x", false)), limit = Some(2)),
      Vector(RelAtom("t", Vector("k", "s", "x"))))
    run(Program(Vector(r), "r"), "SELECT k, x FROM t ORDER BY x DESC LIMIT 2")
  }

  test("distinct head flag") {
    val r = Rule(Head("r", Vector("s" -> v("s")), distinct = true),
      Vector(RelAtom("t", Vector("k", "s", "x"))))
    run(Program(Vector(r), "r"), "SELECT DISTINCT s FROM t")
  }

  test("exists becomes a correlated EXISTS subquery") {
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(RelAtom("u", Vector("k", "y")),
                               PredAtom(TBin(">", v("y"), TConst(2.0)))))))
    run(Program(Vector(r), "r"),
      "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND y > 2)")
  }

  test("nested exists with LIKE (TPC-H Q20 shape at O4)") {
    // r(k) :- t(k,s,x), exists(ps(k,pk,q), (q > 0.5*x), exists(pt(pk,n), (n like "g%"))).
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(RelAtom("ps", Vector("k", "pk", "q")),
                               PredAtom(TBin(">", v("q"), TBin("*", TConst(0.5), v("x")))),
                               ExistsAtom(Vector(RelAtom("pt", Vector("pk", "n")),
                                                 PredAtom(TBin("like", v("n"), TConst("g%")))))))))
    runBoth(Program(Vector(r), "r"),
      "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM ps WHERE ps.k = t.k AND ps.q > 0.5 * t.x " +
      "AND EXISTS (SELECT 1 FROM pt WHERE pt.pk = ps.pk AND pt.name LIKE 'g%'))")
  }

  test("exists predicate over assigned variables of both scopes") {
    // r(k) :- t(k,s,x), (d = x/4), exists(u(k,y), (y2 = y*2), (y2 > d)).
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             AssignAtom("d", TBin("/", v("x"), TConst(4.0))),
             ExistsAtom(Vector(RelAtom("u", Vector("k", "y")),
                               AssignAtom("y2", TBin("*", v("y"), TConst(2.0))),
                               PredAtom(TBin(">", v("y2"), v("d")))))))
    runBoth(Program(Vector(r), "r"),
      "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND u.y * 2 > t.x / 4)")
  }

  test("exists over a VALUES scan") {
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(ConstAtom(Vector("s"), Vector(Vector(TConst("a")), Vector(TConst("c"))))))))
    runBoth(Program(Vector(r), "r"), "SELECT k FROM t WHERE s IN ('a', 'c')")
  }

  test("exists over an outer join") {
    // r(k) :- t(k,s,x), exists(t(k2,s,x2), outer_left[u(k3,y) on (k2 = k3)], (k2 <> k), (y > 3)).
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(RelAtom("t", Vector("k2", "s", "x2")),
                               RelAtom("u", Vector("k3", "y"), Some(("left", TBin("=", v("k2"), v("k3"))))),
                               PredAtom(TBin("<>", v("k2"), v("k"))),
                               PredAtom(TBin(">", v("y"), TConst(3.0)))))))
    runBoth(Program(Vector(r), "r"),
      "SELECT a.k AS k FROM t AS a WHERE EXISTS (SELECT 1 FROM t AS b LEFT JOIN u ON b.k = u.k " +
      "WHERE b.s = a.s AND b.k <> a.k AND u.y > 3)")
  }

  test("an aggregate inside exists is an error that shows the rule") {
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(RelAtom("u", Vector("k", "y")),
                               PredAtom(TBin(">", TAgg("sum", v("y")), TConst(2.0)))))))
    val p = Program(Vector(r), "r")
    val sql = intercept[RuntimeException](SqlGen.programSql(p, cat, SqlGen.DuckDialect))
    assert(sql.getMessage.contains("aggregate inside exists") && sql.getMessage.contains(show(r)), sql.getMessage)
    val spark = intercept[RuntimeException](SparkGen.compile(p, inputs, cat, this.spark))
    assert(spark.getMessage.contains(show(r)), spark.getMessage)
  }

  test("a nested exists that reads the outermost body: SQL runs it, SparkGen fails naming the rule") {
    // A semi join's condition can only read its two sides, so SparkGen cannot
    // correlate a grandchild exists with the rule's own scans.
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(RelAtom("ps", Vector("k", "pk", "q")),
                               ExistsAtom(Vector(RelAtom("pt", Vector("pk", "n")),
                                                 PredAtom(TBin("<", v("x"), TConst(35.0)))))))))
    val p = Program(Vector(r), "r")
    run(p, "SELECT k FROM t WHERE x < 35 AND EXISTS (SELECT 1 FROM ps JOIN pt ON ps.pk = pt.pk WHERE ps.k = t.k)")
    val e = intercept[IllegalArgumentException](SparkGen.compile(p, inputs, cat, spark))
    assert(e.getMessage.contains(show(r)), e.getMessage)
  }

  test("an unbound variable is an error that shows the rule") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "z" -> v("z"))), Vector(RelAtom("t", Vector("k", "s", "x"))))
    val e = intercept[RuntimeException](SqlGen.programSql(Program(Vector(r), "r"), cat, SqlGen.DuckDialect))
    assert(e.getMessage.contains("unbound variable z") && e.getMessage.contains(show(r)), e.getMessage)
  }

  test("every workload program compiles at O0..O4 with both dialects") {
    val programs = Tpch.all.map(q => s"Q${q.id}" -> (q.build(TpchData.catalog), TpchData.catalog)) ++
      (Notebooks.all ++ Hybrid.all).map(w => w.name -> (w.build(NotebookData.catalog), NotebookData.catalog))
    for ((name, (df, c)) <- programs; level <- 0 to 4; d <- Seq(SqlGen.DuckDialect, SqlGen.SparkDialect))
      withClue(s"$name O$level ${d.name}: ") { assert(Pipeline.toSql(df, c, d, level).contains("SELECT")) }
  }

  test("not exists becomes NOT EXISTS") {
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ExistsAtom(Vector(RelAtom("u", Vector("k", "y"))), negated = true)))
    run(Program(Vector(r), "r"),
      "SELECT k FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.k = t.k)")
  }

  test("outer_left marker becomes LEFT JOIN with ON clause") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "y" -> v("y"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             RelAtom("u", Vector("k2", "y"), Some(("left", TBin("=", v("k"), v("k2")))))))
    run(Program(Vector(r), "r"),
      "SELECT t.k AS k, y FROM t LEFT JOIN u ON t.k = u.k")
  }

  test("constant relation renders as an inline VALUES table") {
    val r = Rule(Head("r", Vector("i" -> v("i"), "k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             ConstAtom(Vector("i"), Vector(Vector(TConst(0L)), Vector(TConst(1L))))))
    run(Program(Vector(r), "r"),
      "SELECT i, k FROM t CROSS JOIN (VALUES (0),(1)) vals(i)")
  }

  test("UID renders as a 0-based row_number window") {
    val r = Rule(Head("r", Vector("id" -> v("id"), "k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             AssignAtom("id", TExt("uid", Seq(v("k"))))))
    run(Program(Vector(r), "r"),
      "SELECT ROW_NUMBER() OVER (ORDER BY k) - 1 AS id, k FROM t")
  }

  test("like / not-like / in-list / if render correctly") {
    val r = Rule(Head("r", Vector("k" -> v("k"), "f" -> v("f"))),
      Vector(RelAtom("t", Vector("k", "s", "x")),
             PredAtom(TBin("like", v("s"), TConst("%a%"))),
             PredAtom(TBin("in", v("k"), TExt("list", Seq(TConst(1L), TConst(3L))))),
             AssignAtom("f", TIf(TBin(">", v("x"), TConst(15.0)), TConst("hi"), TConst("lo")))))
    run(Program(Vector(r), "r"),
      "SELECT k, CASE WHEN x > 15 THEN 'hi' ELSE 'lo' END AS f FROM t " +
      "WHERE s LIKE '%a%' AND k IN (1, 3)")
  }

  test("string constants are escaped") {
    val r = Rule(Head("r", Vector("c" -> v("c"))),
      Vector(RelAtom("t", Vector("k", "s", "x")), AssignAtom("c", TConst("it's"))))
    run(Program(Vector(r), "r"), "SELECT 'it''s' AS c FROM t")
  }

  test("result relation must be the last rule") {
    val r = Rule(Head("r", Vector("k" -> v("k"))), Vector(RelAtom("t", Vector("k", "s", "x"))))
    intercept[IllegalArgumentException] {
      SqlGen.programSql(Program(Vector(r), "other"), cat, SqlGen.DuckDialect)
    }
  }

  test("both dialects emit identical SQL apart from VALUES relations") {
    val r = Rule(Head("r", Vector("k" -> v("k"))),
      Vector(RelAtom("t", Vector("k", "s", "x")), PredAtom(TBin(">", v("x"), TConst(10.0)))))
    val d = SqlGen.programSql(Program(Vector(r), "r"), cat, SqlGen.DuckDialect)
    val s = SqlGen.programSql(Program(Vector(r), "r"), cat, SqlGen.SparkDialect)
    assert(d == s)
  }
}
