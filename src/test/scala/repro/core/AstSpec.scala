package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.Ast._
import repro.core.Ast.AggFuncType._

class AstSpec extends AnyFunSuite {

  private val cnt = AggCall(Count, None)
  private val sum = AggCall(Sum, Some("price"))
  private val avg = AggCall(Avg, Some("price"))

  test("AggCall sqlExact for each aggregate kind") {
    assert(cnt.sqlExact == "count(*)")
    assert(AggCall(Count, Some("x")).sqlExact == "count(x)")
    assert(sum.sqlExact == "sum(price)")
    assert(avg.sqlExact == "avg(price)")
    assert(AggCall(CountDistinct, Some("x")).sqlExact == "count(distinct x)")
    assert(AggCall(StddevSamp, Some("x")).sqlExact == "stddev_samp(x)")
    assert(AggCall(VarSamp, Some("x")).sqlExact == "var_samp(x)")
    assert(AggCall(Percentile(0.5), Some("x")).sqlExact == "percentile(x, 0.5)")
    assert(AggCall(Min, Some("x")).sqlExact == "min(x)")
    assert(AggCall(Max, Some("x")).sqlExact == "max(x)")
  }

  test("extreme flags") {
    assert(Min.isExtreme && Max.isExtreme)
    assert(!Count.isExtreme && !Sum.isExtreme && !Percentile(0.9).isExtreme)
  }

  test("aggs collects aggregate calls left to right") {
    val e = Arith("/", Arith("*", Raw("100"), sum), avg)
    assert(e.aggs == Seq(sum, avg))
    assert(Raw("x + 1").aggs.isEmpty)
    assert(FuncWrap("round", Seq(sum, Raw("2"))).aggs == Seq(sum))
  }

  test("render substitutes aggregate calls") {
    val e = Arith("/", sum, cnt)
    assert(e.render(_ => "Z") == "(Z / Z)")
    assert(e.sqlExact == "(sum(price) / count(*))")
  }

  test("FuncWrap renders name(args)") {
    assert(FuncWrap("round", Seq(avg, Raw("2"))).sqlExact == "round(avg(price), 2)")
  }

  test("JoinCond rendering and lookup") {
    val jc = JoinCond("a", "x", "b", "y")
    assert(jc.sql == "a.x = b.y")
    assert(jc.colFor("a").contains("x") && jc.colFor("b").contains("y"))
    assert(jc.colFor("c").isEmpty)
  }

  test("FlatQuery sqlExact renders a complete statement") {
    val q = FlatQuery(
      select = Seq(SelectItem(Raw("g"), "g"), SelectItem(sum, "s")),
      from = Seq(BaseTable("t", "t")),
      joinConds = Seq.empty,
      where = Some(Raw("(price > 10)")),
      groupBy = Seq(Raw("g")),
      having = Some(Arith(">", cnt, Raw("5"))),
      orderBy = Seq(SortKey("s", ascending = false)),
      limit = Some(7))
    val sql = q.sqlExact
    assert(sql ==
      "SELECT g AS g, sum(price) AS s FROM t WHERE (price > 10) GROUP BY g " +
        "HAVING (count(*) > 5) ORDER BY s DESC LIMIT 7")
  }

  test("FlatQuery sqlExact renders joins and aliased/derived tables") {
    val inner = FlatQuery(
      Seq(SelectItem(Raw("g"), "g"), SelectItem(sum, "s")),
      Seq(BaseTable("t", "t")), Seq.empty, None, Seq(Raw("g")), None, Seq.empty, None)
    val q = FlatQuery(
      Seq(SelectItem(AggCall(Avg, Some("s")), "a")),
      Seq(DerivedTable(inner, "d")), Seq.empty, None, Seq.empty, None, Seq.empty, None)
    assert(q.sqlExact ==
      "SELECT avg(s) AS a FROM (SELECT g AS g, sum(price) AS s FROM t GROUP BY g) AS d")

    val j = FlatQuery(
      Seq(SelectItem(cnt, "c")),
      Seq(BaseTable("t", "x"), BaseTable("u", "u")),
      Seq(JoinCond("x", "k", "u", "k")), None, Seq.empty, None, Seq.empty, None)
    assert(j.sqlExact == "SELECT count(*) AS c FROM t AS x, u WHERE x.k = u.k")
  }

  test("aggItems / plainItems / allAggs / hasExtreme") {
    val q = FlatQuery(
      Seq(SelectItem(Raw("g"), "g"), SelectItem(sum, "s"),
        SelectItem(AggCall(Max, Some("x")), "m")),
      Seq(BaseTable("t", "t")), Seq.empty, None, Seq(Raw("g")),
      Some(Arith(">", cnt, Raw("1"))), Seq.empty, None)
    assert(q.plainItems.map(_.alias) == Seq("g"))
    assert(q.aggItems.map(_.alias) == Seq("s", "m"))
    assert(q.allAggs.size == 3) // sum, max, count (having)
    assert(q.hasExtreme)
  }
}
