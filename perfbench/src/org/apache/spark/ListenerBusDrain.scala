package org.apache.spark

/** Spark posts listener events asynchronously; the bus's drain method is
  * package-private, so the benchmark reaches it from this package to read
  * complete task metrics after a query. */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
