package repro.bench

import repro.SparkSpec
import repro.exp.BenchData

/** One Parquet-backed benchmark environment shared by all bench suites in
  * the forked test JVM (sequential execution, single SparkSession).
  *
  * SF=1.0 (~400 MB of Parquet across both schemas): on a 16-core local node
  * with NVMe-class storage, anything smaller lets fixed per-query overheads
  * (planning, task scheduling) drown the scan time whose reduction is the
  * entire point of AQP — the paper's clusters read hundreds of GB.
  */
object BenchEnv {
  val SF = 1.0
  lazy val env: BenchData.Env = BenchData.standardEnv(SparkSpec.shared, SF)

  /** Returns the shared env with its views re-pointed at the SF=1.0 data —
    * call this instead of `env` in suites, since the Fig 5 sweep registers
    * the same view names at other scale factors.
    */
  def freshEnv: BenchData.Env = { val e = env; BenchData.refreshViews(e); e }

  def fmt(d: Double): String = f"$d%.2f"

  def printRows(header: String, rows: Seq[Product]): Unit = {
    println(s"\n== $header ==")
    rows.foreach(r => println("  " + r.productIterator.map {
      case d: Double => f"$d%10.3f"
      case x         => f"${x.toString}%12s"
    }.mkString(" ")))
  }
}
