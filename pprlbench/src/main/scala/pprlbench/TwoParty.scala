package pprlbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.blocking.{Candidates, HammingLsh}
import repro.core.{BloomFilter, Encodings}
import repro.data.PersonGen
import repro.matching.{Classifier, Scoring}
import repro.pprl.Pipeline

/** `two_party_20k`: the default `Pipeline.run` on 20k × 20k records with
  * 10k shared entities and 20% corruption — the baseline workload, where
  * blocking and scoring take most of the time.
  */
object TwoParty extends WorkloadKind("two_party_20k", warmups = 2) {
  def setup(spark: SparkSession, seed: Long): Workload = new TwoParty(spark, seed)
}

final class TwoParty(spark: SparkSession, seed: Long) extends Workload {

  private val cfg = Pipeline.Config()

  val inputs: Seq[DataFrame] = {
    val (a, b) = PersonGen.pair(spark, 20000, 20000, 10000, 0.2, seed = seed)
    Workload.cacheAll(Seq(a, b))
  }
  private def a = inputs(0)
  private def b = inputs(1)
  val records: Long = 40000L

  private var truth: Set[(Long, Long)] = Set.empty
  private var refA: Map[Long, Array[Byte]] = Map.empty
  private var refB: Map[Long, Array[Byte]] = Map.empty

  def prepare(): Unit = {
    truth = Workload.truthPairs(inputs)
    refA = Workload.referenceClks(a)
    refB = Workload.referenceClks(b)
  }

  final class Out(val result: Pipeline.Result) extends RunOutput {
    def pairs: DataFrame = result.matches
    def release(): Unit = result.matches.unpersist()
  }

  // the latest untraced result on the cached inputs, which traced runs cross-check
  private var untraced: Option[Pipeline.Result] = None

  def runOn(in: Seq[DataFrame]): Out = {
    val r = Pipeline.run(in(0), in(1), cfg)
    if (in == inputs) untraced = Some(r)
    new Out(r)
  }

  /** Every match clears the threshold under the reference Dice, and no
    * record is matched twice.
    */
  def check(out: Out): Seq[String] = {
    val ms = Workload.collectPairs(out.pairs)
    val low = ms.count { case (x, y) => BloomFilter.dice(refA(x), refB(y)) < cfg.threshold }
    val dupA = ms.size - ms.map(_._1).distinct.size
    val dupB = ms.size - ms.map(_._2).distinct.size
    Seq(
      Option.when(ms.size != out.result.nMatches)(s"collected ${ms.size} matches, run counted ${out.result.nMatches}"),
      Option.when(low > 0)(s"$low matches below Dice ${cfg.threshold} under the reference kernel"),
      Option.when(dupA + dupB > 0)(s"one-to-one violated: $dupA repeated id_a, $dupB repeated id_b"),
    ).flatten
  }

  def f1(out: Out): Double = Workload.f1(Workload.collectPairs(out.pairs).toSet, truth)

  def counts(out: Out): Seq[(String, Long)] =
    Seq("candidates" -> out.result.nCandidates, "matches" -> out.result.nMatches)

  /** `Pipeline.run`'s public calls in `Pipeline.run`'s order, one span per
    * stage named as in `Pipeline.Result.timings`.
    */
  def traced(t: Tracer): Traced = {
    val (ea, eb) = t.span("encode") {
      def enc(df: DataFrame) = Encodings.withClk(df, cfg.fields, cfg.l, cfg.k, cfg.q, cfg.secret)
        .select(col("rec_id"), col("bf")).persist()
      val (ea, eb) = (enc(a), enc(b))
      ea.count(); eb.count()
      (ea, eb)
    }
    val (positions, cands, nCands) = t.span("block") {
      val sample = ea.select("bf").limit(1000).collect().map(_.getAs[Array[Byte]](0)).toSeq
      val positions = HammingLsh.samplePositionsEntropyAware(
        sample, cfg.l, cfg.lshTables, cfg.lshBits, cfg.seed)
      val c = HammingLsh.candidatesWithPositions(ea, eb, "bf", positions).persist()
      (positions, c, c.count())
    }
    val (scored, nScored) = t.span("score") {
      val s = Scoring.withDice(cands, ea, eb, "bf").persist()
      (s, s.count())
    }
    val (matches, nMatches) = t.span("classify") {
      val m = Classifier.greedyOneToOne(scored.where(col("sim") >= cfg.threshold))
        .select("id_a", "id_b").persist()
      (m, m.count())
    }

    val digest = Workload.digest(matches)
    val diag = t.untraced {
      val ka = HammingLsh.keys(ea, "bf", positions)
      val kb = HammingLsh.keys(eb, "bf", positions)
      val (raw, maxBucket, top20) = Workload.bucketStats(Seq(ka -> kb))
      val truthDf = PersonGen.truthPairs(a, b)
      Map(
        "blocking.key_rows" -> (ka.count() + kb.count()).toDouble,
        "blocking.raw_pairs" -> raw.toDouble,
        "blocking.dup_ratio" -> raw.toDouble / nCands,
        "blocking.max_bucket_pairs" -> maxBucket.toDouble,
        "blocking.top20_bucket_share" -> top20.toDouble / nCands,
        "blocking.pairs_completeness" -> Candidates.pairsCompleteness(cands, truthDf),
        "matching.above_threshold_pairs" -> scored.where(col("sim") >= cfg.threshold).count().toDouble)
    }
    Seq(ea, eb, cands, scored, matches).foreach(_.unpersist())

    val spans = Seq("encode", "block", "score", "classify")
    val crossCheck = untraced.toSeq.flatMap { r =>
      Console.err.println("[pprlbench] stage s, traced vs Pipeline.Result.timings: " +
        spans.map(s => f"$s ${t.seconds(s)}%.3f/${r.millis(s) / 1e3}%.3f").mkString(", "))
      Seq(
        Option.when(r.timings.map(_._1) != spans)(s"Pipeline stages ${r.timings.map(_._1)} are not the traced spans $spans"),
        Option.when(r.nCandidates != nCands)(s"traced run found $nCands candidates, Pipeline.run ${r.nCandidates}"),
        Option.when(r.nMatches != nMatches)(s"traced run found $nMatches matches, Pipeline.run ${r.nMatches}"),
      ).flatten
    }

    val encodeS = t.seconds("encode")
    Traced(digest, diag ++ Map(
      "core.encode_s" -> encodeS,
      "core.encode_records_per_s" -> records / encodeS,
      "blocking.block_s" -> t.seconds("block"),
      "blocking.candidates" -> nCands.toDouble,
      "blocking.useful_ratio" -> nMatches.toDouble / nCands,
      "matching.score_s" -> t.seconds("score"),
      "matching.scored_pairs_per_s" -> nScored / t.seconds("score"),
      "matching.classify_s" -> t.seconds("classify")), crossCheck)
  }

  /** `Pipeline.run` once more on each repartitioning of the inputs. */
  override def partitionDigestMismatch: Option[Boolean] = {
    val digests = Seq(1, 4).map { p =>
      val out = runOn(inputs.map(_.repartition(p)))
      try Workload.digest(out.pairs) finally out.release()
    }
    Some(digests.distinct.size > 1)
  }

  def kernelFilters: (Array[Array[Byte]], Array[Array[Byte]]) =
    (refA.values.toArray, refB.values.toArray)
}
