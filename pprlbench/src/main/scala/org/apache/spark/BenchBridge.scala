package org.apache.spark

/** Access to the one `private[spark]` hook the benchmark needs: listener
  * events are delivered asynchronously, so task metrics of a finished
  * action are complete only once the bus has drained.
  */
object BenchBridge {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
