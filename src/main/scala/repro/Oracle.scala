package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import scala.jdk.CollectionConverters._

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** Floating-point values match when |a - b| <= max(AbsTol, RelTol * max(|a|, |b|)).
    * Two engines may add the same doubles in different orders; recursive
    * summation of n same-signed terms is off by at most (n - 1) * 2^-53 of
    * the sum, so RelTol = 1e-11 covers reorderings of up to ~1e5 terms while
    * a relative error of 1e-9 still fails. AbsTol covers values that cancel
    * to about zero.
    */
  private val RelTol = 1e-11
  private val AbsTol = 1e-12

  /** Rows with columns in name order; floating-point cells as doubles,
    * other non-NULL cells as text. Rows sort on their exact cells first, so
    * two engines' doubles that differ within the tolerance cannot reorder
    * rows that the exact cells tell apart. */
  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Any]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                     => null
          case d: Double                => d
          case f: Float                 => f.toDouble
          case bd: java.math.BigDecimal => bd.doubleValue
          case x                        => x.toString
        }
      })
      .sortBy(r => (r.map { case _: Double => 0.0; case v => v }, r))(
        Ordering.Tuple2(rowOrder, rowOrder))
  }

  /** NULL < number < text; numbers by value, text lexicographically. */
  private val cellOrder: Ordering[Any] = (a: Any, b: Any) => (a, b) match {
    case (x: Double, y: Double) => java.lang.Double.compare(x, y)
    case (x: String, y: String) => x.compareTo(y)
    case _ =>
      def rank(v: Any) = v match { case null => 0; case _: Double => 1; case _ => 2 }
      rank(a) - rank(b)
  }

  private val rowOrder = Ordering.Implicits.seqOrdering[Seq, Any](cellOrder)

  private def close(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) =>
      x == y || (x.isNaN && y.isNaN) ||
        math.abs(x - y) <= math.max(AbsTol, RelTol * math.max(math.abs(x), math.abs(y)))
    case _ => a == b
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      val mismatched = got.zip(exp).filterNot { case (g, e) => g.corresponds(e)(close) }
      require(got.size == exp.size && mismatched.isEmpty,
        s"result mismatch (${got.size} vs ${exp.size} rows), first (spark, duckdb) " +
        s"row pairs that differ: ${mismatched.take(3)}"
      )
    } finally conn.close()
  }
}
