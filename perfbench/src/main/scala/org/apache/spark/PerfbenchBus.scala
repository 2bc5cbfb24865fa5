package org.apache.spark

/** Lives in Spark's package only to reach the listener bus, whose drain is
  * `private[spark]`. The harness drains it after each query so that listener
  * counters hold every event the query caused before they are read.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
