package repro.data

import repro.{SparkSpec, SynthData}

/** Generators: deterministic, right shapes, right value ranges. */
class DataSpec extends SparkSpec {

  test("tpch-lite row counts scale with sf") {
    assert(SynthData.lineitem(spark, 0.001).count() == 6000)
    assert(SynthData.orders(spark, 0.001).count() == 1500)
    assert(SynthData.customer(spark, 0.001).count() == 150)
    assert(SynthData.part(spark, 0.001).count() == 200)
  }

  test("tpch-lite generators are deterministic in (sf, seed)") {
    val a = SynthData.lineitem(spark, 0.001).collect()
    val b = SynthData.lineitem(spark, 0.001).collect()
    assert(a.sameElements(b))
  }

  test("lineitem value ranges") {
    val row = SynthData.lineitem(spark, 0.001).selectExpr(
      "min(l_quantity)", "max(l_quantity)", "min(l_discount)", "max(l_discount)",
      "count(distinct l_returnflag)", "count(distinct l_linestatus)").head()
    assert(row.getDouble(0) >= 1.0 && row.getDouble(1) <= 51.0)
    assert(row.getDouble(2) >= 0.0 && row.getDouble(3) <= 0.10)
    assert(row.getLong(4) == 3 && row.getLong(5) == 2)
  }

  test("orders keys are dense 1..N and join with lineitem") {
    val od = SynthData.orders(spark, 0.001)
    val li = SynthData.lineitem(spark, 0.001)
    assert(od.selectExpr("min(o_orderkey)").head().getLong(0) == 1L)
    assert(od.selectExpr("max(o_orderkey)").head().getLong(0) == 1500L)
    val joined = li.join(od, li("l_orderkey") === od("o_orderkey")).count()
    assert(joined == li.count(), "every lineitem must have a matching order")
  }

  test("insta-lite row counts scale with sf") {
    assert(InstaData.orderItems(spark, 0.001).count() == 4000)
    assert(InstaData.instaOrders(spark, 0.001).count() == 1000)
    assert(InstaData.instaProducts(spark, 0.001).count() == 50)
  }

  test("insta-lite dimension attributes have the advertised cardinalities") {
    val io = InstaData.instaOrders(spark, 0.01)
    val dows  = io.selectExpr("count(distinct io_dow)").head().getLong(0)
    val hours = io.selectExpr("count(distinct io_hour)").head().getLong(0)
    assert(dows == 7 && hours == 24)
    val ip = InstaData.instaProducts(spark, 0.01)
    val deps = ip.selectExpr("count(distinct ip_department_id)").head().getLong(0)
    assert(deps == 21)
  }

  test("insta order_items joins completely to both dimensions") {
    val oi = InstaData.orderItems(spark, 0.001)
    val io = InstaData.instaOrders(spark, 0.001)
    val ip = InstaData.instaProducts(spark, 0.001)
    assert(oi.join(io, oi("oi_order_id") === io("io_order_id")).count() == oi.count())
    assert(oi.join(ip, oi("oi_product_id") === ip("ip_product_id")).count() == oi.count())
  }
}
