package pprlbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.blocking.{Candidates, HammingLsh}
import repro.core.Encodings
import repro.data.PersonGen
import repro.matching.{Clustering, MultiParty}

import scala.collection.mutable

/** `multi_party_p3`: T4's multi-party path for p = 3 parties over a
  * universe of 1000 entities (~600 records per party). Three small LSH +
  * Dice joins instead of one big one, then connected components, whose
  * many small Spark jobs dominate the run. (T4's p = 5 costs about three
  * times as much per run and does not fit the benchmark's time budget.)
  */
object MultiPartyLinkage extends WorkloadKind("multi_party_p3", warmups = 3) {
  def setup(spark: SparkSession, seed: Long): Workload = new MultiPartyLinkage(spark, seed)

  // T4's parameters
  val Parties = 3
  val Fields: Seq[String] = Seq("fname", "lname", "dob", "city")
  val L = 1024
  val K = 10
  val Tables = 40
  val Bits = 20
  val Threshold = 0.9
  val Secret = "s3cret"
  val LshSeed = 42L
}

final class MultiPartyLinkage(spark: SparkSession, seed: Long) extends Workload {
  import MultiPartyLinkage._

  val inputs: Seq[DataFrame] =
    Workload.cacheAll(PersonGen.parties(spark, Parties, 1000, 0.6, 0.2, seed = seed))
  val records: Long = inputs.map(_.count()).sum

  private var truth: Set[(Long, Long)] = Set.empty
  private var filters: Array[Array[Byte]] = Array.empty

  def prepare(): Unit = {
    truth = Workload.truthPairs(inputs)
    filters = inputs.flatMap(Workload.referenceClks(_).values).toArray
  }

  final class Out(val encoded: Seq[DataFrame], val edges: DataFrame, val comp: DataFrame,
                  val comparisons: Long, val clusters: Long, val subsets: Seq[Long])
      extends RunOutput {
    def pairs: DataFrame = Clustering.clusterPairs(comp)
    def release(): Unit = { comp.unpersist(); encoded.foreach(_.unpersist()) }
  }

  private def encode(in: Seq[DataFrame]): Seq[DataFrame] =
    Workload.cacheAll(in.map(df =>
      Encodings.withClk(df, Fields, L, K, secret = Secret).select("rec_id", "bf")))

  private def clusterCount(comp: DataFrame): Long = comp.select("comp").distinct().count()

  private def subsetCounts(comp: DataFrame): Seq[Long] =
    (2 to Parties).map(MultiParty.subsetMatchCount(comp, _))

  def runOn(in: Seq[DataFrame]): Out = {
    val enc = encode(in)
    val (edges, comparisons) = MultiParty.pairwiseEdges(enc, "bf", L, Tables, Bits, Threshold, LshSeed)
    val comp = MultiParty.clusters(edges).persist()
    val n = clusterCount(comp)
    new Out(enc, edges, comp, comparisons, n, subsetCounts(comp))
  }

  /** Number of components of the collected edge graph, by union-find. */
  private def unionFindClusters(edges: Seq[(Long, Long)]): Long = {
    val parent = mutable.Map.empty[Long, Long]
    def find(x: Long): Long = {
      val p = parent.getOrElseUpdate(x, x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }
    for ((x, y) <- edges) { val (rx, ry) = (find(x), find(y)); if (rx != ry) parent(rx) = ry }
    parent.keys.count(k => find(k) == k).toLong
  }

  // Collecting the edges re-runs every LSH join, so the union-find answer
  // comes from the first run checked; the digest check holds every other
  // run to that run's result.
  private var expectedClusters: Option[Long] = None

  def check(out: Out): Seq[String] = {
    val expected = expectedClusters.getOrElse(unionFindClusters(Workload.collectPairs(out.edges)))
    expectedClusters = Some(expected)
    Option.when(out.clusters != expected)(
      s"${out.clusters} clusters, but union-find over the edges gives $expected").toSeq
  }

  def f1(out: Out): Double = Workload.f1(Workload.collectPairs(out.pairs).toSet, truth)

  def counts(out: Out): Seq[(String, Long)] =
    Seq("comparisons" -> out.comparisons, "clusters" -> out.clusters) ++
      out.subsets.zipWithIndex.map { case (c, i) => s"subset_m${i + 2}" -> c }

  /** Spans encode → edges → clusters → subset. `pairwiseEdges` counts the
    * candidates of every party pair but leaves the Dice scoring lazy, so
    * the scoring runs — and is timed — inside `clusters`.
    */
  def traced(t: Tracer): Traced = {
    val enc = t.span("encode")(encode(inputs))
    val (edges, comparisons) = t.span("edges") {
      MultiParty.pairwiseEdges(enc, "bf", L, Tables, Bits, Threshold, LshSeed)
    }
    val (comp, nClusters) = t.span("clusters") {
      val c = MultiParty.clusters(edges).persist()
      (c, clusterCount(c))
    }
    t.span("subset")(subsetCounts(comp))

    val digest = Workload.digest(Clustering.clusterPairs(comp))
    val diag = t.untraced {
      val positions = HammingLsh.samplePositions(L, Tables, Bits, LshSeed)
      val keys = enc.map(HammingLsh.keys(_, "bf", positions).persist())
      val pairs = for (i <- enc.indices; j <- enc.indices if i < j) yield (i, j)
      val (raw, maxBucket, top20) = Workload.bucketStats(pairs.map { case (i, j) => keys(i) -> keys(j) })
      val cands = pairs.map { case (i, j) =>
        HammingLsh.candidatesWithPositions(enc(i), enc(j), "bf", positions)
      }.reduce(_ unionByName _)
      val truthDf = spark.createDataFrame(truth.toSeq).toDF("id_a", "id_b")
      val keyRows = keys.map(_.count()).sum * (Parties - 1)
      keys.foreach(_.unpersist())
      val nEdges = edges.count()
      Map(
        "blocking.key_rows" -> keyRows.toDouble,
        "blocking.raw_pairs" -> raw.toDouble,
        "blocking.dup_ratio" -> raw.toDouble / comparisons,
        "blocking.max_bucket_pairs" -> maxBucket.toDouble,
        "blocking.top20_bucket_share" -> top20.toDouble / comparisons,
        "blocking.pairs_completeness" -> Candidates.pairsCompleteness(cands, truthDf),
        "blocking.useful_ratio" -> nEdges.toDouble / comparisons,
        "matching.above_threshold_pairs" -> nEdges.toDouble)
    }
    comp.unpersist(); enc.foreach(_.unpersist())

    val encodeS = t.seconds("encode")
    Traced(digest, diag ++ Map(
      "core.encode_s" -> encodeS,
      "core.encode_records_per_s" -> records / encodeS,
      "blocking.block_s" -> t.seconds("edges"),
      "blocking.candidates" -> comparisons.toDouble,
      "matching.cluster_s" -> t.seconds("clusters"),
      "matching.subset_s" -> t.seconds("subset"),
      "matching.clusters" -> nClusters.toDouble), Nil)
  }

  def kernelFilters: (Array[Array[Byte]], Array[Array[Byte]]) =
    filters.splitAt(filters.length / 2)
}
