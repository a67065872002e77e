package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Encodings
import repro.data.{Names, PersonGen}
import repro.matching.{Classifier, Scoring}
import repro.privacy.{FrequencyAttack, Hardening}

/** T5 — the privacy/utility trade-off: frequency-alignment attack success
  * versus linkage quality, per hardening variant.
  *
  * Attack target: the first-name field. The adversary sees one party's
  * encoded database and knows the public first-name distribution (the
  * generator's Zipf weights — exactly the "known unencoded frequency"
  * assumption of the classic attack). Each variant reports:
  *  - re-identification rate on a field-level encoding of fname
  *    (record-level CLK is also attacked directly, as its own row);
  *  - linkage F1 of the corresponding hardened CLK pipeline (full cross
  *    product at n, best-F1 threshold), showing the utility cost.
  */
object T5Privacy {

  case class Row(variant: String, epsilonPerBit: Double, reidentRate: Double,
                 f1: Double)

  case class Params(n: Long = 3000, overlapFrac: Double = 0.5,
                    corruption: Double = 0.2, fieldL: Int = 256, fieldK: Int = 15,
                    l: Int = 1024, k: Int = 16, secret: String = "s3cret",
                    seed: Long = 42L)

  def run(spark: SparkSession, p: Params = Params()): Seq[Row] = {
    val (a0, b0) = PersonGen.pair(spark, p.n, p.n, (p.n * p.overlapFrac).toLong,
                                  p.corruption, maxEdits = 2, seed = p.seed)
    val a = a0.persist(); val b = b0.persist()
    a.count(); b.count()
    val truth = PersonGen.truthPairs(a, b).persist()
    val cands = a.select(col("rec_id") as "id_a")
      .crossJoin(b.select(col("rec_id") as "id_b")).persist()
    cands.count()
    val population = FrequencyAttack.expectedFreq(spark, Names.FirstNames, 1.0)
    // dob in the CLK: disambiguates popular-name entities (and doubles as
    // the salt field in the hardened variant)
    val fields = Seq("fname", "lname", "dob", "city")

    def attackOn(df: DataFrame): Double =
      FrequencyAttack.reidentificationRate(df, "bf", "fname", population)

    def f1Of(ea: DataFrame, eb: DataFrame): Double =
      Classifier.bestF1(Scoring.withDice(cands, ea, eb), truth, T1Quality.Thresholds)._4

    // none: plain field BF attacked; plain CLK linked
    val fbfA = Encodings.withFieldBf(a, "fname", p.fieldL, p.fieldK, secret = p.secret)
    val clkA = Encodings.withClk(a, fields, p.l, p.k, secret = p.secret)
    val clkB = Encodings.withClk(b, fields, p.l, p.k, secret = p.secret)
    val none = Row("field-bf (none)", Double.PositiveInfinity,
                   attackOn(fbfA), f1Of(clkA, clkB))

    // record-level CLK attacked directly (pattern = whole record encoding)
    val clkRow = Row("clk (record-level)", Double.PositiveInfinity,
                     attackOn(clkA), f1Of(clkA, clkB))

    // salt: DOB folded into every token hash
    val saltFbfA = Encodings.withFieldBf(a, "fname", p.fieldL, p.fieldK,
                                         secret = p.secret, saltField = Some("dob"))
    def saltClk(df: DataFrame): DataFrame =
      Encodings.withClk(df, fields, p.l, p.k, secret = p.secret, saltField = Some("dob"))
    val salt = Row("salted (dob)", Double.PositiveInfinity,
                   attackOn(saltFbfA), f1Of(saltClk(a), saltClk(b)))

    // BLIP at two flip rates
    def blipRow(f: Double): Row = {
      val ba = Hardening.blip(fbfA, "bf", f, seed = p.seed)
      val ca = Hardening.blip(clkA, "bf", f, seed = p.seed)
      val cb = Hardening.blip(clkB, "bf", f, seed = p.seed + 1)
      Row(s"blip f=$f", Hardening.blipEpsilon(f), attackOn(ba), f1Of(ca, cb))
    }
    val blip2 = blipRow(0.02)
    val blip5 = blipRow(0.05)

    cands.unpersist(); truth.unpersist(); a.unpersist(); b.unpersist()
    Seq(none, clkRow, salt, blip2, blip5)
  }

  /** EXPERIMENTS.md T5's claim shape, as verdicts ([[Fmt.verdicts]]). */
  def check(rows: Seq[Row]): Seq[String] = Fmt.verdicts {
    val m = rows.map(r => r.variant -> r).toMap
    def re(v: String): Double = m(v).reidentRate
    def f1(v: String): Double = m(v).f1
    val (none, clk) = ("field-bf (none)", "clk (record-level)")
    val (b2, b5) = ("blip f=0.02", "blip f=0.05")
    Seq(Fmt.claim(none, "re-ident", re(none), ">", 0.5),
        Fmt.claim(clk, "re-ident", re(clk), "<", re(none), s"$none re-ident "),
        Fmt.claim("salted (dob)", "re-ident", re("salted (dob)"), "<", 0.05),
        Fmt.claim(b5, "re-ident", re(b5), "<", 0.1),
        Fmt.claim(none, "F1", f1(none), ">", 0.85),
        Fmt.claim(b2, "F1", f1(b2), ">", f1(none) - 0.1, s"$none F1 - 0.1 = "),
        Fmt.claim(b5, "F1", f1(b5), "<=", f1(b2) + 0.02, s"$b2 F1 + 0.02 = "))
  }

  def format(rows: Seq[Row]): String =
    Fmt.table("T5 — privacy/utility: frequency attack vs linkage quality",
      Seq("variant", "eps/bit", "re-ident rate", "linkage F1"),
      rows.map(r => Seq(r.variant,
                        if (r.epsilonPerBit.isPosInfinity) "inf" else Fmt.f(r.epsilonPerBit, 2),
                        Fmt.pct(r.reidentRate), Fmt.f(r.f1))))
}
