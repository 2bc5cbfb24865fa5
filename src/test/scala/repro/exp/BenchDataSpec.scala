package repro.exp

import java.nio.file.Files

import org.apache.commons.io.FileUtils

import repro.{SparkSpec, SynthData}

/** Bench data set-up from a fresh checkout. */
class BenchDataSpec extends SparkSpec {

  test("a table directory holding only a _SUCCESS marker is regenerated, then read") {
    val dir = Files.createTempDirectory("bench-data")
    try {
      val table = dir.resolve("sf1").resolve("part")
      Files.createDirectories(table)
      Files.createFile(table.resolve("_SUCCESS"))
      // a session of its own, so the `part` view of other suites is untouched
      val session = spark.newSession()
      BenchData.writeAndRegisterBase(session, 0.001, dir.toString, Seq("part"))
      assert(session.table("part").count() == SynthData.part(spark, 0.001).count())
    } finally FileUtils.deleteDirectory(dir.toFile)
  }
}
