package repro.util

/** Wall-clock helpers for the experiment harnesses. */
object Timing {

  /** Returns (result, elapsedMillis). */
  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Minimum latency of `reps` runs after `warmup` unmeasured runs — the
    * robust estimator of a query's intrinsic cost on a machine with noisy
    * neighbours (interference only ever adds time).
    */
  def minMs(reps: Int = 3, warmup: Int = 1)(f: => Unit): Double = {
    var i = 0
    while (i < warmup) { f; i += 1 }
    Array.fill(reps) { time(f)._2 }.min
  }
}
