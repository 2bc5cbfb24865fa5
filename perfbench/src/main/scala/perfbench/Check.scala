package perfbench

import java.nio.file.Path

import java.sql.DriverManager

import org.apache.spark.sql.Row

/** A query answer as text: every value printed so that it parses back to
  * the same number (`java.lang.Double.toString` round-trips).
  */
final case class Answer(cols: Seq[String], rows: Seq[Seq[String]]) {
  def col(name: String): Int = cols.indexWhere(_.equalsIgnoreCase(name))
}

object Answer {
  val Null = "\\N"

  def of(cols: Seq[String], rows: Seq[Row]): Answer =
    Answer(cols, rows.map(r => cols.indices.map { i =>
      r.get(i) match {
        case null      => Null
        case d: Double => java.lang.Double.toString(d)
        case x         => x.toString
      }
    }))

  /** Spark SQL to DuckDB: the suite needs one rename. */
  private def duckSql(sql: String): String = sql.replace("percentile(", "quantile_cont(")

  private def text(v: Any): String = v match {
    case null                     => Null
    case d: java.lang.Double      => java.lang.Double.toString(d)
    case f: java.lang.Float       => java.lang.Double.toString(f.toDouble)
    case b: java.math.BigDecimal  => java.lang.Double.toString(b.doubleValue)
    case x                        => x.toString
  }

  /** Exact answers of every query, from DuckDB reading the same Parquet
    * files: an engine independent of the one under test, and fast enough
    * (about a second for a workload) that the check costs little of a run.
    * One thread, so that floating-point sums add up in the same order in
    * every run and the quality metrics repeat to the last digit for a seed.
    */
  def exact(base: Map[String, Path], queries: Seq[Query]): Map[String, Answer] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement()
      st.execute("SET threads = 1")
      base.foreach { case (t, p) =>
        st.execute(s"CREATE VIEW $t AS SELECT * FROM read_parquet('$p/part-*.parquet')")
      }
      queries.map { q =>
        val rs   = st.executeQuery(duckSql(q.sql))
        val cols = (1 to rs.getMetaData.getColumnCount).map(rs.getMetaData.getColumnLabel)
        val rows = Iterator.continually(rs).takeWhile(_.next())
          .map(r => cols.indices.map(i => text(r.getObject(i + 1)))).toList
        q.name -> Answer(cols, rows)
      }.toMap
    } finally conn.close()
  }
}

/** Outcome of checking one answer against the exact one: `problems` break
  * a guarantee (a wrong exact value, a missing column, an error), `misses`
  * are approximate answers outside their stated bound.
  */
final case class Outcome(problems: Seq[String], misses: Seq[String], approxCells: Int,
                         covered: Int, relErrPct: Seq[Double]) {
  def ok: Boolean = problems.isEmpty && misses.isEmpty
}

/** The answer check.
  *
  * - A cell the engine computed exactly (pass-through, HAC re-run, the
  *   min/max part of a decomposed query) must match within the bound on
  *   reordered floating-point summation: |a - b| <= 4 n eps max(|a|, |b|),
  *   with n the rows of the largest base table and eps = 2^-53. Formatting
  *   both to 6 decimals would fail on values that straddle a rounding
  *   boundary and pass every value below 5e-7. (The factor is 4 and not 2
  *   because a ratio of two sums carries the error of both.)
  * - An approximate cell (one with an `_err` column) must lie within
  *   `Sigmas` of its own error estimate of the exact value. A calibrated
  *   estimate misses this about once in 1.7 million cells, so a miss means
  *   a wrong estimate or an error estimate that is too small (an `_err` of
  *   0 on an inexact value always misses).
  * - Every exact group must be answered, and no other. A group missing
  *   from an approximate answer is a miss (the sample may lack it); from an
  *   exact answer, a problem.
  */
object Check {
  val Sigmas = 5.0
  val Z95    = 1.959963984540054
  private val Eps = math.ulp(1.0) / 2

  def exactTolerance(maxRows: Long): Double = 4.0 * maxRows * Eps

  private def num(s: String): Option[Double] =
    if (s == Answer.Null) None else s.toDoubleOption

  private def exactMatch(a: String, b: String, tol: Double): Boolean =
    (num(a), num(b)) match {
      case (Some(x), Some(y)) =>
        x == y || math.abs(x - y) <= tol * math.max(math.abs(x), math.abs(y))
      case _ => a == b
    }

  /** @param keys     output columns that identify a group
    * @param errCols  approximate column -> its error column
    * @param limited  the query ends in ORDER BY ... LIMIT, so rows tied at
    *                 the cut-off may differ between two exact runs
    */
  def apply(expected: Answer, got: Answer, keys: Seq[String],
            errCols: Map[String, String], limited: Boolean, tol: Double): Outcome = {
    val problems = Seq.newBuilder[String]
    val misses   = Seq.newBuilder[String]
    val groups   = if (errCols.isEmpty) problems else misses
    var approx = 0; var covered = 0
    val relErr = Seq.newBuilder[Double]
    val missing = expected.cols.filter(c => got.col(c) < 0)
    if (missing.nonEmpty)
      return Outcome(Seq(s"missing columns ${missing.mkString(",")}"), Nil, 0, 0, Nil)

    val values = expected.cols.filterNot(c => keys.exists(_.equalsIgnoreCase(c)))
    def key(a: Answer, r: Seq[String]): String = keys.map(k => r(a.col(k))).mkString("|")

    def compareRow(e: Seq[String], g: Seq[String], where: String): Unit =
      values.foreach { c =>
        val ev = e(expected.col(c)); val gv = g(got.col(c))
        errCols.find(_._1.equalsIgnoreCase(c)) match {
          case None =>
            if (!exactMatch(ev, gv, tol)) problems += s"$where.$c: got $gv, exact $ev"
          case Some((_, errCol)) =>
            approx += 1
            (num(ev), num(gv), num(g(got.col(errCol)))) match {
              case (Some(x), Some(est), Some(err)) if !err.isNaN && !est.isNaN =>
                val d = math.abs(est - x)
                if (d <= Z95 * err) covered += 1
                if (x != 0) relErr += 100.0 * d / math.abs(x)
                if (d > Check.Sigmas * err + tol * math.abs(x))
                  misses += s"$where.$c: estimate $est +- $err, exact $x"
              case _ => problems += s"$where.$c: got $gv (err ${g(got.col(errCol))}), exact $ev"
            }
        }
      }

    if (limited) {
      if (got.rows.size != expected.rows.size)
        groups += s"${got.rows.size} rows, exact ${expected.rows.size}"
      else {
        val exactKeys = expected.rows.map(key(expected, _)).toSet
        val cutoff    = expected.rows.lastOption
        expected.rows.zip(got.rows).zipWithIndex.foreach { case ((e, g), i) =>
          compareRow(e, g, s"row $i")
          val tiedAtCutoff = cutoff.exists(last => values.forall(c =>
            exactMatch(last(expected.col(c)), g(got.col(c)), tol)))
          if (!exactKeys.contains(key(got, g)) && !tiedAtCutoff)
            groups += s"row $i: group ${key(got, g)} is not in the exact answer"
        }
      }
    } else {
      val byKey = got.rows.groupBy(key(got, _))
      val dup   = byKey.collect { case (k, rs) if rs.size > 1 => k }
      if (dup.nonEmpty) problems += s"groups answered twice: ${dup.take(3).mkString(",")}"
      val exactKeys = expected.rows.map(key(expected, _)).toSet
      val extra = byKey.keySet -- exactKeys
      if (extra.nonEmpty) groups += s"groups not in the exact answer: ${extra.take(3).mkString(",")}"
      expected.rows.foreach { e =>
        val k = key(expected, e)
        byKey.get(k) match {
          case Some(g +: _) => compareRow(e, g, s"[$k]")
          case _            => groups += s"group [$k] missing"
        }
      }
    }
    Outcome(problems.result(), misses.result(), approx, covered, relErr.result())
  }
}
