package repro.pprl

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.blocking.HammingLsh
import repro.core.Encodings
import repro.matching.{Classifier, Scoring}

/** End-to-end two-party PPRL pipeline: CLK encode → Hamming-LSH block →
  * Dice score → threshold classify → greedy one-to-one. Every
  * inter-party artifact is an encoded column; per-stage wall times are
  * captured by forcing each stage with an action.
  */
object Pipeline {

  /** Tunables of the standard pipeline (l=1024, bigrams). k=10 keeps BF
    * fill ≈ 0.35: higher fill lifts the baseline cross-Dice of *unrelated*
    * records toward the fill rate, which drags Zipf-skew families (records
    * sharing a popular name or city) over the match threshold and floods
    * the LSH buckets. β=24 sampled bits per table × 40 tables keeps
    * collision probability ≈ 1 for Dice ≥ 0.9 pairs while suppressing the
    * skew families (see [[HammingLsh.collisionProbability]]).
    */
  case class Config(
      fields: Seq[String] = Seq("fname", "lname", "dob", "city"),
      l: Int = 1024,
      k: Int = 10,
      q: Int = 2,
      secret: String = "s3cret",
      lshTables: Int = 40,
      lshBits: Int = 24,
      threshold: Double = 0.9,
      seed: Long = 7L) {
    for ((name, v) <- Seq("l" -> l, "k" -> k, "q" -> q, "lshTables" -> lshTables))
      require(v > 0, s"$name must be positive, got $v")
    require(lshBits > 0 && lshBits <= 63, s"lshBits must be in [1, 63], got $lshBits")
    require(threshold > 0 && threshold <= 1, s"threshold must be in (0, 1], got $threshold")
  }

  /** Outcome: the matched pairs plus the numbers every experiment reports. */
  case class Result(
      matches: DataFrame,
      nCandidates: Long,
      nMatches: Long,
      timings: Seq[(String, Long)]) {
    def millis(stage: String): Long = timings.find(_._1 == stage).map(_._2).getOrElse(0L)
    def totalMillis: Long = timings.map(_._2).sum
  }

  private def timed[T](buf: scala.collection.mutable.ArrayBuffer[(String, Long)],
                       name: String)(body: => T): T = {
    val t0 = System.nanoTime()
    val r = body
    buf += name -> ((System.nanoTime() - t0) / 1000000L)
    r
  }

  /** Run the pipeline on two party DataFrames with `rec_id` + QID fields. */
  def run(a: DataFrame, b: DataFrame, cfg: Config = Config()): Result = {
    val timings = scala.collection.mutable.ArrayBuffer.empty[(String, Long)]

    val (ea, eb) = timed(timings, "encode") {
      val ea = Encodings.withClk(a, cfg.fields, cfg.l, cfg.k, cfg.q, cfg.secret)
        .select(col("rec_id"), col("bf")).persist()
      val eb = Encodings.withClk(b, cfg.fields, cfg.l, cfg.k, cfg.q, cfg.secret)
        .select(col("rec_id"), col("bf")).persist()
      ea.count(); eb.count()
      (ea, eb)
    }

    val (cands, nCands) = timed(timings, "block") {
      // entropy-aware bit selection: uniform sampling over a ~35%-fill CLK
      // picks near-constant bits whose tables bucket half the database
      // together (quadratic candidates under Zipf name skew)
      val sample = ea.select("bf").limit(1000).collect()
        .map(_.getAs[Array[Byte]](0)).toSeq
      val positions = HammingLsh.samplePositionsEntropyAware(
        sample, cfg.l, cfg.lshTables, cfg.lshBits, cfg.seed)
      val c = HammingLsh.candidatesWithPositions(ea, eb, "bf", positions).persist()
      (c, c.count())
    }

    val scored = timed(timings, "score") {
      val s = Scoring.withDice(cands, ea, eb, "bf").persist()
      s.count()
      s
    }

    val (matches, nMatches) = timed(timings, "classify") {
      val m = Classifier.greedyOneToOne(scored.where(col("sim") >= cfg.threshold))
        .select("id_a", "id_b").persist()
      (m, m.count())
    }

    cands.unpersist(); scored.unpersist(); ea.unpersist(); eb.unpersist()
    Result(matches, nCands, nMatches, timings.toSeq)
  }
}
