package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import repro.core.{Optimizer, SqlGen, TondIR}
import repro.frontend.Lower

/** Exact counts of compiler output: IR rules and atoms after each optimizer
  * level, and generated SQL bytes. They are usable as counts only because
  * compiling a program gives the same output every time; `main` checks that
  * within one process, and `tests/test_counts.py` across two. */
object Counts {
  private def cat = Workloads.catalog

  private def atoms(a: TondIR.Atom): Int = a match {
    case TondIR.ExistsAtom(b, _) => 1 + b.map(atoms).sum
    case _                       => 1
  }

  /** Per-layer counts summed over `programs`: `ir.oL.rules`, `ir.oL.atoms`
    * for L = 0..4 and DuckDB `sqlgen.sql_bytes.o0` / `.o4`. */
  def of(programs: Seq[Program]): Map[String, Long] = {
    val perProgram = programs.map { p =>
      val ir0 = Lower.lower(p.df, cat)
      val levels = (0 to 4).map(l => l -> Optimizer.optimize(ir0, cat, l)).toMap
      val ir = levels.toSeq.flatMap { case (l, ir) =>
        Seq(s"ir.o$l.rules" -> ir.rules.size.toLong, s"ir.o$l.atoms" -> ir.rules.map(_.body.map(atoms).sum).sum.toLong) }
      val sql = Seq(0, 4).map(l => s"sqlgen.sql_bytes.o$l" ->
        SqlGen.programSql(levels(l), cat, SqlGen.DuckDialect).getBytes(UTF_8).length.toLong)
      (ir ++ sql).toMap
    }
    perProgram.flatMap(_.keys).distinct.map(k => k -> perProgram.map(_(k)).sum).toMap
  }

  /** One line per program, level and dialect: rules, atoms, SQL bytes and a
    * digest of the SQL text. */
  def report(programs: Seq[Program]): Seq[String] =
    for (p <- programs; l <- 0 to 4; d <- Seq(SqlGen.DuckDialect, SqlGen.SparkDialect)) yield {
      val ir = Optimizer.optimize(Lower.lower(p.df, cat), cat, l)
      val sql = SqlGen.programSql(ir, cat, d).getBytes(UTF_8)
      val digest = MessageDigest.getInstance("SHA-256").digest(sql).take(8).map("%02x".format(_)).mkString
      s"${p.name}\to$l\t${d.name}\trules=${ir.rules.size}\tatoms=${ir.rules.map(_.body.map(atoms).sum).sum}\tsql_bytes=${sql.length}\tsql=$digest"
    }

  /** Print the report for every program of every workload after checking
    * that a second compile in this process gives the same report. */
  def main(args: Array[String]): Unit = {
    val programs = Workloads.all.flatMap(_.programs)
    val first = report(programs)
    val second = report(programs)
    val diff = first.zip(second).filter { case (x, y) => x != y }
    if (diff.nonEmpty) {
      diff.foreach { case (x, y) => System.err.println(s"differs within one process:\n  $x\n  $y") }
      sys.exit(1)
    }
    first.foreach(println)
  }
}
