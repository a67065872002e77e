package repro.experiments

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Encodings, Similarity, SimilarityExpressions}
import repro.data.PersonGen
import repro.matching.{Classifier, Scoring}

/** T1 — linkage quality versus encoding technique ("past" vs "present").
  *
  * Full cross product of two n-record parties (no blocking, so nothing
  * confounds the encoding comparison), swept over corruption levels.
  * Techniques: HMAC exact key, SLK-581, field-level Bloom filters (mean
  * Dice), CLK (Dice), and the plaintext q-gram Jaccard upper bound.
  * Reported P/R/F1 are at each technique's best-F1 threshold over a fixed
  * grid — standard practice when no training labels exist.
  */
object T1Quality {

  case class Row(encoder: String, corruption: Double, threshold: Double,
                 precision: Double, recall: Double, f1: Double, millis: Long)

  val Thresholds: Seq[Double] = (50 to 95 by 5).map(_ / 100.0)

  def run(spark: SparkSession, n: Long = 1500,
          corruptions: Seq[Double] = Seq(0.0, 0.2, 0.4),
          secret: String = "s3cret", seed: Long = 42L): Seq[Row] = {
    corruptions.flatMap { corr =>
      val (a0, b0) = PersonGen.pair(spark, n, n, n / 2, corr, maxEdits = 2, seed = seed)
      val a = a0.persist(); val b = b0.persist()
      val truth = PersonGen.truthPairs(a, b).persist()
      val cands = a.select(col("rec_id") as "id_a")
        .crossJoin(b.select(col("rec_id") as "id_b")).persist()
      cands.count()

      def timedBest(name: String, scored: DataFrame,
                    ths: Seq[Double] = Thresholds): Row = {
        val t0 = System.nanoTime()
        val (th, p, r, f1) = Classifier.bestF1(scored, truth, ths)
        Row(name, corr, th, p, r, f1, (System.nanoTime() - t0) / 1000000L)
      }

      // dob included: popular-name entities are otherwise irreducibly
      // ambiguous, which would cap precision for every fuzzy technique
      val fields = Seq("fname", "lname", "dob", "city")

      // plaintext upper bound
      val ta = Encodings.withTokens(a, fields)
      val tb = Encodings.withTokens(b, fields)
      val plain = timedBest("plain-qgram", Scoring.score(cands, ta, tb, Seq("tokens"),
        (x, y) => Similarity.tokenJaccard(x.head, y.head)))

      // CLK (k ≈ l·ln2 / ~45 tokens for ~50% fill)
      val ca = Encodings.withClk(a, fields, k = 16, secret = secret)
      val cb = Encodings.withClk(b, fields, k = 16, secret = secret)
      val clk = timedBest("clk-dice", Scoring.withDice(cands, ca, cb))

      // field-level BFs, mean Dice
      def fbf(df: DataFrame): DataFrame =
        fields.foldLeft(df)((d, fld) =>
          Encodings.withFieldBf(d, fld, secret = secret, out = s"bf_$fld"))
      val fb = timedBest("field-bf-dice",
        Scoring.score(cands, fbf(a), fbf(b), fields.map(f => s"bf_$f"), (x, y) =>
          x.zip(y).map { case (u, v) => SimilarityExpressions.diceSim(u, v) }
            .reduce(_ + _) / lit(fields.size.toDouble)))

      // exact agreement on a derived key as a 0/1 similarity
      def keyEquality(x: Seq[Column], y: Seq[Column]): Column =
        when(x.head === y.head, 1.0).otherwise(0.0)

      // SLK-581 (exact agreement on the derived key)
      val sa = Encodings.withSlk581(a, secret = secret)
      val sb = Encodings.withSlk581(b, secret = secret)
      val slk = timedBest("slk-581",
        Scoring.score(cands, sa, sb, Seq("slk"), keyEquality), Seq(1.0))

      // HMAC exact key over name fields + dob
      val ha = Encodings.withHmacKey(a, Seq("fname", "lname", "dob"), secret)
      val hb = Encodings.withHmacKey(b, Seq("fname", "lname", "dob"), secret)
      val exact = timedBest("hmac-exact",
        Scoring.score(cands, ha, hb, Seq("hkey"), keyEquality), Seq(1.0))

      cands.unpersist(); truth.unpersist(); a.unpersist(); b.unpersist()
      Seq(exact, slk, fb, clk, plain)
    }
  }

  /** EXPERIMENTS.md T1's claim shape, as verdicts ([[Fmt.verdicts]]). */
  def check(rows: Seq[Row]): Seq[String] = Fmt.verdicts {
    val at = rows.map(r => (r.encoder, r.corruption) -> r).toMap
    def f1(enc: String, c: Double): Double = at((enc, c)).f1
    Seq("hmac-exact", "slk-581", "field-bf-dice", "clk-dice", "plain-qgram")
      .map(e => Fmt.claim(s"$e @ 0.0%", "F1", f1(e, 0.0), ">", 0.95)) ++
    Seq(0.2, 0.4).flatMap { c =>
      val (row, clk) = (s"clk-dice @ ${Fmt.pct(c)}", f1("clk-dice", c))
      Seq(Fmt.claim(row, "F1", clk, ">", f1("hmac-exact", c), "hmac-exact F1 "),
          Fmt.claim(row, "F1", clk, ">", f1("slk-581", c), "slk-581 F1 "),
          Fmt.claim(row, "F1 gap to plain-qgram", f1("plain-qgram", c) - clk, "<", 0.05))
    } :+
    Fmt.claim("hmac-exact @ 40.0%", "recall", at(("hmac-exact", 0.4)).recall, "<", 0.75)
  }

  def format(rows: Seq[Row]): String =
    Fmt.table("T1 — linkage quality vs encoding (best-F1 threshold, full cross product)",
      Seq("encoder", "corruption", "threshold", "precision", "recall", "F1", "time"),
      rows.map(r => Seq(r.encoder, Fmt.pct(r.corruption), Fmt.f(r.threshold, 2),
                        Fmt.f(r.precision), Fmt.f(r.recall), Fmt.f(r.f1),
                        Fmt.secs(r.millis))))
}
