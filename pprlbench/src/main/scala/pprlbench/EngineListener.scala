package pprlbench

import org.apache.spark.BenchBridge
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

import scala.collection.mutable

/** Spark task metrics, attributed to the job group that was active when
  * each job started (the benchmark sets one group per traced span).
  */
final class EngineListener extends SparkListener {

  final class Span {
    var jobs = 0L
    var tasks = 0L
    var shuffleWrite = 0L
    var shuffleRead = 0L
    var spill = 0L
    val durations = mutable.ArrayBuffer.empty[Long]

    /** Max task time over median task time; 0 without tasks. */
    def skew: Double =
      if (durations.isEmpty) 0.0
      else {
        val s = durations.sorted
        s.last.toDouble / math.max(1L, s(s.size / 2))
      }
  }

  private val stageGroup = mutable.Map.empty[Int, String]
  private val spans = mutable.Map.empty[String, Span]
  private var peakExecMem = 0L
  private var jobCount = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobCount += 1
    val group = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (group != null) {
      spans.getOrElseUpdate(group, new Span).jobs += 1
      e.stageIds.foreach(stageGroup(_) = group)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      peakExecMem = math.max(peakExecMem, m.peakExecutionMemory)
      stageGroup.get(e.stageId).foreach { g =>
        val s = spans.getOrElseUpdate(g, new Span)
        s.tasks += 1
        s.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        s.shuffleRead += m.shuffleReadMetrics.totalBytesRead
        s.spill += m.memoryBytesSpilled + m.diskBytesSpilled
        s.durations += e.taskInfo.duration
      }
    }
  }

  /** Wait for pending events, then forget everything recorded so far. */
  def reset(spark: SparkSession): Unit = {
    BenchBridge.drainListenerBus(spark.sparkContext)
    synchronized { stageGroup.clear(); spans.clear(); peakExecMem = 0L; jobCount = 0L }
  }

  /** Largest `peakExecutionMemory` of any task since the last reset. */
  def peakExecutionMemory(spark: SparkSession): Long = {
    BenchBridge.drainListenerBus(spark.sparkContext)
    synchronized(peakExecMem)
  }

  /** Spark jobs started since the last reset. */
  def jobs(spark: SparkSession): Long = {
    BenchBridge.drainListenerBus(spark.sparkContext)
    synchronized(jobCount)
  }

  /** Metrics of one job group since the last reset (empty if it ran no job). */
  def span(spark: SparkSession, group: String): Span = {
    BenchBridge.drainListenerBus(spark.sparkContext)
    synchronized(spans.getOrElse(group, new Span))
  }
}
