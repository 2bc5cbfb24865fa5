package repro.core

import repro.SparkSpec
import repro.core.Ast._
import repro.core.Ast.AggFuncType._

/** The "Query Parser": SQL text -> Catalyst unresolved plan -> middleware
  * AST. Exercises the supported-query class of Table 1 plus the bail-outs.
  */
class CatalystConverterSpec extends SparkSpec {

  private lazy val lookup: CatalystConverter.SchemaLookup = {
    TestData.li.createOrReplaceTempView("lineitem")
    TestData.od.createOrReplaceTempView("orders")
    alias => try Some(spark.table(alias).columns.toSeq) catch { case _: Exception => None }
  }

  private def parse(sql: String): Either[String, FlatQuery] =
    CatalystConverter.convert(spark.sessionState.sqlParser.parsePlan(sql), lookup)

  private def parsed(sql: String): FlatQuery = parse(sql) match {
    case scala.Right(q) => q
    case scala.Left(r)  => fail(s"expected supported query, got: $r")
  }

  test("simple grouped aggregate") {
    val q = parsed("SELECT l_returnflag, count(*) AS c FROM lineitem GROUP BY l_returnflag")
    assert(q.groupBy.map(_.sqlText) == Seq("l_returnflag"))
    assert(q.from == Seq(BaseTable("lineitem", "lineitem")))
    assert(q.select.map(_.alias) == Seq("l_returnflag", "c"))
    assert(q.allAggs == Seq(AggCall(Count, None)))
  }

  test("global aggregate without GROUP BY parses via the Project path") {
    val q = parsed("SELECT sum(l_quantity) AS s FROM lineitem")
    assert(q.groupBy.isEmpty)
    assert(q.allAggs == Seq(AggCall(Sum, Some("l_quantity"))))
  }

  test("every supported aggregate maps to its AggFuncType") {
    val q = parsed(
      """SELECT count(*) AS a, count(l_partkey) AS b, sum(l_quantity) AS c,
        |avg(l_quantity) AS d, min(l_quantity) AS e, max(l_quantity) AS f,
        |stddev(l_quantity) AS g, variance(l_quantity) AS h,
        |count(distinct l_orderkey) AS i, percentile(l_quantity, 0.9) AS j,
        |median(l_quantity) AS k
        |FROM lineitem""".stripMargin)
    val fs = q.allAggs.map(_.func)
    assert(fs == Seq(Count, Count, Sum, Avg, Min, Max, StddevSamp, VarSamp,
      CountDistinct, Percentile(0.9), Percentile(0.5)))
  }

  test("WHERE filters are captured as raw SQL") {
    val q = parsed(
      "SELECT count(*) AS c FROM lineitem WHERE l_quantity < 24 AND l_discount >= 0.05")
    assert(q.where.isDefined)
    val w = q.where.get.sqlText
    assert(w.contains("l_quantity < 24") && w.contains("l_discount >= 0.05"))
  }

  test("IN, LIKE, IS NULL, CASE WHEN render through") {
    val q = parsed(
      """SELECT count(*) AS c FROM lineitem
        |WHERE l_returnflag IN ('N', 'R') AND l_linestatus LIKE 'O%'
        |AND l_shipdate IS NOT NULL""".stripMargin)
    val w = q.where.get.sqlText
    assert(w.contains("IN ('N', 'R')"))
    assert(w.contains("LIKE 'O%'"))
    assert(w.contains("IS NOT NULL"))

    val q2 = parsed(
      "SELECT sum(CASE WHEN l_returnflag = 'R' THEN l_quantity ELSE 0.0 END) AS s " +
        "FROM lineitem")
    assert(q2.allAggs.head.argSql.get.contains("CASE WHEN"))
  }

  test("equi-join conditions are split from residual filters") {
    val q = parsed(
      """SELECT count(*) AS c FROM lineitem, orders
        |WHERE l_orderkey = o_orderkey AND o_totalprice > 1000""".stripMargin)
    assert(q.from.map(_.alias).toSet == Set("lineitem", "orders"))
    assert(q.joinConds == Seq(JoinCond("lineitem", "l_orderkey", "orders", "o_orderkey")))
    assert(q.where.get.sqlText.contains("o_totalprice > 1000"))
  }

  test("explicit JOIN ... ON syntax is also supported") {
    val q = parsed(
      "SELECT count(*) AS c FROM lineitem JOIN orders ON l_orderkey = o_orderkey")
    assert(q.joinConds.size == 1)
  }

  test("qualified attributes resolve join ownership") {
    val q = parsed(
      "SELECT count(*) AS c FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey")
    assert(q.joinConds == Seq(JoinCond("l", "l_orderkey", "o", "o_orderkey")))
    assert(q.from.map(_.alias) == Seq("l", "o"))
  }

  test("unqualified columns of aliased tables resolve join ownership") {
    val q = parsed(
      "SELECT count(*) AS c FROM lineitem l, orders o WHERE l_orderkey = o_orderkey")
    assert(q.joinConds == Seq(JoinCond("l", "l_orderkey", "o", "o_orderkey")))
    assert(q.where.isEmpty)
  }

  test("ORDER BY and LIMIT are captured") {
    val q = parsed(
      "SELECT l_returnflag, count(*) AS c FROM lineitem GROUP BY l_returnflag " +
        "ORDER BY c DESC LIMIT 5")
    assert(q.orderBy == Seq(SortKey("c", ascending = false)))
    assert(q.limit.contains(5L))
  }

  test("HAVING over aggregates is captured as an Expr with AggCalls") {
    val q = parsed(
      "SELECT l_returnflag, sum(l_quantity) AS s FROM lineitem " +
        "GROUP BY l_returnflag HAVING count(*) > 10")
    assert(q.having.isDefined)
    assert(q.having.get.aggs == Seq(AggCall(Count, None)))
  }

  test("arithmetic over aggregates (tq14 shape)") {
    val q = parsed(
      "SELECT (100.0 * sum(l_quantity) / sum(l_extendedprice)) AS r FROM lineitem")
    val e = q.select.head.expr
    assert(e.aggs.size == 2)
    assert(e.sqlExact.contains("sum(l_quantity)"))
    assert(e.sqlExact.contains("/"))
  }

  test("aggregate of an expression keeps the expression text") {
    val q = parsed("SELECT sum(l_extendedprice * (1 - l_discount)) AS rev FROM lineitem")
    val arg = q.allAggs.head.argSql.get
    assert(arg.contains("l_extendedprice") && arg.contains("l_discount"))
  }

  test("derived table in FROM becomes DerivedTable") {
    val q = parsed(
      """SELECT avg(s) AS a FROM
        |(SELECT l_returnflag, sum(l_quantity) AS s FROM lineitem
        | GROUP BY l_returnflag) t""".stripMargin)
    q.from match {
      case Seq(DerivedTable(inner, "t")) =>
        assert(inner.groupBy.map(_.sqlText) == Seq("l_returnflag"))
        assert(inner.allAggs == Seq(AggCall(Sum, Some("l_quantity"))))
      case other => fail(s"expected derived table, got $other")
    }
  }

  test("unsupported shapes bail with a reason") {
    assert(parse("SELECT l_returnflag FROM lineitem").isLeft) // no aggregate
    assert(parse(
      "SELECT count(*) AS c FROM lineitem LEFT JOIN orders ON l_orderkey = o_orderkey").isLeft)
    assert(parse(
      "SELECT count(*) AS c FROM lineitem WHERE l_quantity > " +
        "(SELECT avg(l_quantity) FROM lineitem)").isLeft) // scalar subquery
    assert(parse("SELECT count(*) AS c FROM lineitem UNION " +
      "SELECT count(*) AS c FROM orders").isLeft)
  }

  test("date literals render as DATE '...'") {
    val q = parsed(
      "SELECT count(*) AS c FROM lineitem WHERE l_shipdate >= DATE '1994-01-01'")
    assert(q.where.get.sqlText.contains("DATE '1994-01-01'"))
  }

  test("string literals are quoted and escaped") {
    val q = parsed("SELECT count(*) AS c FROM lineitem WHERE l_returnflag = 'N'")
    assert(q.where.get.sqlText.contains("'N'"))
  }

  test("unaliased plain column gets its own name as alias") {
    val q = parsed("SELECT l_returnflag, count(*) AS c FROM lineitem GROUP BY l_returnflag")
    assert(q.select.head.alias == "l_returnflag")
  }

  test("cast in a filter renders as CAST(... AS ...)") {
    val q = parsed(
      "SELECT count(*) AS c FROM lineitem WHERE CAST(l_quantity AS INT) = 3")
    assert(q.where.get.sqlText.toUpperCase.contains("CAST"))
  }
}
