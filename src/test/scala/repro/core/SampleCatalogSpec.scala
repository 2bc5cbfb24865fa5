package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SampleCatalogSpec extends AnyFunSuite {

  private def info(base: String, table: String, n: Long = 100, N: Long = 1000) =
    SampleInfo(base, table, SampleType.Uniform, Seq.empty, 0.1, N, n)

  test("register and lookup are case-insensitive on the base table") {
    val c = new SampleCatalog
    c.register(info("LineItem", "s1"))
    assert(c.samplesFor("lineitem").map(_.sampleTable) == Seq("s1"))
    assert(c.samplesFor("LINEITEM").map(_.sampleTable) == Seq("s1"))
    assert(c.samplesFor("orders").isEmpty)
  }

  test("multiple samples per base table preserve insertion order") {
    val c = new SampleCatalog
    c.register(info("t", "a")); c.register(info("t", "b")); c.register(info("u", "c"))
    assert(c.samplesFor("t").map(_.sampleTable) == Seq("a", "b"))
    assert(c.allSamples.map(_.sampleTable) == Seq("a", "b", "c"))
  }

  test("ratio is sampleRows / baseRows, 1.0 on empty base") {
    assert(info("t", "a", n = 100, N = 1000).ratio == 0.1)
    assert(info("t", "a", n = 0, N = 0).ratio == 1.0)
  }
}
