package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{FileSourceScanExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.{ReusedExchangeExec, ShuffleExchangeExec}
import org.apache.spark.sql.util.QueryExecutionListener

/** What the engine did for one executed statement, read from its final
  * physical plan.
  */
final case class Statement(endNs: Long, durationNs: Long, scans: Int,
                           scanBytes: Long, scanRows: Long,
                           shufflePartitions: Long, phasesMs: Map[String, Long])

/** Engine counters for everything run since the last `drain`. */
final case class EngineSnapshot(statements: Seq[Statement], jobs: Long, stages: Long,
                                tasks: Long, taskMs: Long, shuffleBytes: Long) {
  def scanBytes: Long = statements.map(_.scanBytes).sum
}

/** Listens from outside the program: a `QueryExecutionListener` sees every
  * statement the program executes (HAC's internal collect too) and a
  * `SparkListener` counts jobs, stages, tasks, task time and shuffle bytes.
  */
final class EngineCounters extends SparkListener with QueryExecutionListener {
  private val done      = new ConcurrentLinkedQueue[(QueryExecution, Long, Long)]
  private val jobs      = new AtomicLong
  private val stages    = new AtomicLong
  private val tasks     = new AtomicLong
  private val taskMs    = new AtomicLong
  private val shuffleWr = new AtomicLong

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    done.add((qe, System.nanoTime(), durationNs))
  // A failed statement surfaces as an exception from the query itself.
  override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      taskMs.addAndGet(m.executorRunTime)
      shuffleWr.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def register(spark: SparkSession): this.type = {
    spark.sparkContext.addSparkListener(this)
    spark.listenerManager.register(this)
    this
  }

  /** Waits until every event so far is delivered, then returns and resets
    * the counters.
    */
  def drain(spark: SparkSession): EngineSnapshot = {
    PerfbenchBus.drain(spark.sparkContext)
    val stmts = Iterator.continually(done.poll()).takeWhile(_ != null).map {
      case (qe, end, dur) => Engine.statement(qe, end, dur)
    }.toSeq
    EngineSnapshot(stmts, jobs.getAndSet(0), stages.getAndSet(0), tasks.getAndSet(0),
      taskMs.getAndSet(0), shuffleWr.getAndSet(0))
  }
}

object Engine {

  /** Every node of an executed plan. Adaptive execution hides the stages it
    * ran behind `AdaptiveSparkPlanExec` and `QueryStageExec`; a walk over
    * `children` alone never reaches their scans and reads 0 bytes. Reused
    * exchanges are not entered, because their scans ran once, elsewhere.
    */
  def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case s: QueryStageExec        => s +: nodes(s.plan)
    case r: ReusedExchangeExec    => Seq(r)
    case other                    => other +: (other.children ++ other.subqueries).flatMap(nodes)
  }

  private def metric(p: SparkPlan, name: String): Long =
    p.metrics.get(name).map(_.value).getOrElse(0L)

  def statement(qe: QueryExecution, endNs: Long, durationNs: Long): Statement = {
    val all   = nodes(qe.executedPlan)
    val scans = all.collect { case s: FileSourceScanExec => s }
    val shufflePartitions = all.collect {
      case e: ShuffleExchangeExec => e.numPartitions.toLong
    }.sum
    val phases = qe.tracker.phases.map { case (k, v) => k -> v.durationMs }
    Statement(endNs, durationNs, scans.size,
      scans.map(metric(_, "filesSize")).sum,
      scans.map(metric(_, "numOutputRows")).sum,
      shufflePartitions, phases)
  }
}
