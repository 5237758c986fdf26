package org.apache.spark

/** Listener events arrive asynchronously; the benchmark reads its listener
  * only after every event posted so far has been delivered. The listener bus
  * is private to Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
