package pprlbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{BloomFilter, QGrams}
import repro.pprl.Pipeline

import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._

/** What one run of a workload produced. */
trait RunOutput {
  /** The linked pairs `(id_a, id_b)`, materialised by the run. */
  def pairs: DataFrame
  /** Drop everything the run cached. */
  def release(): Unit
}

/** One benchmark workload over inputs generated (and cached) from a seed.
  * Only `runOn` and `traced` are timed; everything else is set-up or
  * checking and stays outside the timed sections.
  */
abstract class Workload {
  type Out <: RunOutput

  /** The cached inputs the program under test receives. */
  def inputs: Seq[DataFrame]
  /** Input records per run (the numerator of `records_per_s`). */
  def records: Long

  /** Build the driver-side reference answers the checks use (untimed). */
  def prepare(): Unit

  /** Inputs of the dropped warm-up runs. */
  def warmupInputs: Seq[DataFrame] = inputs

  /** The untraced run: the program's public entry points on `in`. */
  def runOn(in: Seq[DataFrame]): Out

  /** Correctness problems of one run's output; empty when it is right. */
  def check(out: Out): Seq[String]
  /** Linkage F1 against the generator's ground truth. */
  def f1(out: Out): Double
  /** Deterministic counts of one run, logged beside the metrics. */
  def counts(out: Out): Seq[(String, Long)]

  /** The same work as `run`, split into spans (one Spark job group each). */
  def traced(t: Tracer): Traced

  /** Whether the result changes between inputs repartitioned to 1 and to
    * 4 partitions; `None` where the benchmark does not probe it.
    */
  def partitionDigestMismatch: Option[Boolean] = None

  /** Filters the `core.dice*` kernel probes run on. */
  def kernelFilters: (Array[Array[Byte]], Array[Array[Byte]])

  /** Drop the cached inputs. */
  def release(): Unit = inputs.foreach(_.unpersist())
}

/** A traced run's result digest, the per-layer metrics it measured, and
  * any disagreement with the untraced runs.
  */
final case class Traced(digest: Long, metrics: Map[String, Double], problems: Seq[String])

/** How to build a workload, and how many dropped runs warm its JVM up. */
abstract class WorkloadKind(val name: String, val warmups: Int) {
  def setup(spark: SparkSession, seed: Long): Workload
}

object Workload {

  val kinds: Seq[WorkloadKind] = Seq(TwoParty, MultiPartyLinkage, PPJoinFiltering)

  /** Order-independent digest of a pair set: `bit_xor(xxhash64(id_a, id_b))`
    * (a `sum` would overflow under ANSI mode).
    */
  def digest(pairs: DataFrame): Long = {
    val r = pairs.agg(bit_xor(xxhash64(col("id_a").cast("long"), col("id_b").cast("long")))).head()
    if (r.isNullAt(0)) 0L else r.getLong(0)
  }

  def collectPairs(pairs: DataFrame): Seq[(Long, Long)] =
    pairs.select(col("id_a").cast("long"), col("id_b").cast("long")).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSeq

  /** Ground truth across parties: every pair of records, from parties
    * i < j, that share an `ent_id`. The same pairs as
    * `PersonGen.truthPairs`, matched on the driver to spare one Spark join
    * per party pair in every run of the benchmark.
    */
  def truthPairs(parties: Seq[DataFrame]): Set[(Long, Long)] = {
    val byEntity = parties.map(_.select("ent_id", "rec_id").collect()
      .groupMap(_.getLong(0))(_.getLong(1)))
    (for {
      i <- parties.indices; j <- parties.indices if i < j
      (e, as) <- byEntity(i).toSeq; a <- as.toSeq; b <- byEntity(j).getOrElse(e, Array.empty[Long]).toSeq
    } yield (a, b)).toSet
  }

  /** The default pipeline's CLK of every record, built on the driver with
    * the reference kernel (`rec_id` → filter).
    */
  def referenceClks(df: DataFrame): Map[Long, Array[Byte]] = {
    val cfg = Pipeline.Config()
    df.select(col("rec_id") +: cfg.fields.map(col): _*).collect().toSeq.par.map { r =>
      val values = cfg.fields.indices.map(i => r.getString(i + 1))
      r.getLong(0) -> BloomFilter.encode(QGrams.recordGrams(values, cfg.q), cfg.l, cfg.k, cfg.secret)
    }.seq.toMap
  }

  def f1(predicted: Set[(Long, Long)], truth: Set[(Long, Long)]): Double = {
    val tp = predicted.count(truth.contains).toDouble
    val p = if (predicted.isEmpty) 0.0 else tp / predicted.size
    val r = if (truth.isEmpty) 0.0 else tp / truth.size
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }

  def cacheAll(dfs: Seq[DataFrame]): Seq[DataFrame] = {
    val cached = dfs.map(_.persist())
    cached.foreach(_.count())
    cached
  }

  /** Bucket statistics of banded-LSH joins, computed from the public
    * `HammingLsh.keys` of both sides of each join: `(raw pairs, largest
    * bucket, pairs in the 20 largest buckets)`. A bucket shared by `na`
    * and `nb` records yields `na·nb` rows of the `(t, key)` join before
    * de-duplication.
    */
  def bucketStats(joins: Seq[(DataFrame, DataFrame)]): (Long, Long, Long) = {
    val buckets = joins.map { case (ka, kb) =>
      ka.groupBy("t", "key").agg(count("*") as "na")
        .join(kb.groupBy("t", "key").agg(count("*") as "nb"), Seq("t", "key"))
        .select((col("na") * col("nb")) as "pairs")
    }.reduce(_ unionByName _).persist()
    val all = buckets.agg(sum("pairs"), max("pairs")).head()
    val top = buckets.orderBy(col("pairs").desc).limit(20).agg(sum("pairs")).head()
    buckets.unpersist()
    def long(r: org.apache.spark.sql.Row, i: Int) = if (r.isNullAt(i)) 0L else r.getLong(i)
    (long(all, 0), long(all, 1), long(top, 0))
  }
}

/** Spans of a traced run: each span is one Spark job group, so the
  * [[EngineListener]] attributes its tasks to it.
  */
final class Tracer(val spark: SparkSession, val listener: EngineListener) {

  private val secs = mutable.LinkedHashMap.empty[String, Double]

  private def inGroup[T](group: String)(body: => T): T = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, s"pprlbench $group", interruptOnCancel = false)
    try body finally sc.clearJobGroup()
  }

  private var gc = 0.0

  def span[T](name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    val gc0 = Main.gcSeconds
    try inGroup(name)(body)
    finally {
      secs(name) = (System.nanoTime() - t0) / 1e9
      gc += Main.gcSeconds - gc0
    }
  }

  /** JVM garbage-collection time inside the spans. */
  def gcSeconds: Double = gc

  /** Wall time of a finished span. */
  def seconds(name: String): Double = secs(name)

  /** Sum of all span times of this run. */
  def total: Double = secs.values.sum

  /** Spark task metrics of every span of this run, as `engine.*`. */
  def engineMetrics: Map[String, Double] = secs.keys.toSeq.flatMap { s =>
    val m = listener.span(spark, s)
    val mb = 1024.0 * 1024.0
    Seq(s"engine.$s.jobs" -> m.jobs.toDouble,
        s"engine.$s.tasks" -> m.tasks.toDouble,
        s"engine.$s.shuffle_write_mb" -> m.shuffleWrite / mb,
        s"engine.$s.shuffle_read_mb" -> m.shuffleRead / mb,
        s"engine.$s.spill_mb" -> m.spill / mb,
        s"engine.$s.task_skew" -> m.skew)
  }.toMap

  /** Run `body` outside every span, in its own job group. */
  def untraced[T](body: => T): T = inGroup("diagnostics")(body)
}
