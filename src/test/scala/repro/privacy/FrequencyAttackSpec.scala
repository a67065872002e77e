package repro.privacy

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Encodings
import repro.data.{Names, PersonGen}

class FrequencyAttackSpec extends SparkSpec {

  private def population = FrequencyAttack.expectedFreq(spark, Names.FirstNames, 1.0)

  test("expectedFreq sums to ~1 and is rank-decreasing") {
    val rows = population.collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(math.abs(rows.values.sum - 1.0) < 1e-9)
    // pool order is rank order: first entry outweighs the 50th
    assert(rows(Names.FirstNames(0)) > rows(Names.FirstNames(49)))
  }

  test("alignment maps most frequent pattern to most frequent value") {
    import spark.implicits._
    val enc = (Seq.fill(5)("aaa") ++ Seq.fill(2)("bbb") :+ "ccc").zipWithIndex
      .map { case (p, i) => (i.toLong, p) }.toDF("rec_id", "enc")
    val pop = Seq(("james", 0.6), ("mary", 0.3), ("john", 0.1)).toDF("value", "weight")
    val m = FrequencyAttack.alignment(enc, "enc", pop).collect()
      .map(r => r.getString(0) -> r.getString(1)).toMap
    assert(m(hexOf("aaa")) == "james")
    assert(m(hexOf("bbb")) == "mary")
    assert(m(hexOf("ccc")) == "john")
  }
  private def hexOf(s: String): String =
    s.getBytes("UTF-8").map(b => f"$b%02X").mkString

  test("unsalted field BF is highly re-identifiable") {
    val df = Encodings.withFieldBf(PersonGen.database(spark, 1, 0, 3000), "fname",
                                   l = 256, k = 10, secret = "fa")
    val rate = FrequencyAttack.reidentificationRate(df, "bf", "fname", population)
    assert(rate > 0.5, s"attack rate $rate should be high on deterministic encoding")
  }
  test("salting collapses the attack") {
    val df = Encodings.withFieldBf(PersonGen.database(spark, 1, 0, 3000), "fname",
                                   l = 256, k = 10, secret = "fa",
                                   saltField = Some("dob"))
    val rate = FrequencyAttack.reidentificationRate(df, "bf", "fname", population)
    assert(rate < 0.05, s"attack rate $rate should collapse under salting")
  }
  test("blip reduces the attack") {
    val df = Encodings.withFieldBf(PersonGen.database(spark, 1, 0, 3000), "fname",
                                   l = 256, k = 10, secret = "fa")
    val plainRate = FrequencyAttack.reidentificationRate(df, "bf", "fname", population)
    val blipped = Hardening.blip(df, "bf", 0.05)
    val blipRate = FrequencyAttack.reidentificationRate(blipped, "bf", "fname", population)
    assert(blipRate < plainRate, s"blip $blipRate vs plain $plainRate")
    assert(blipRate < 0.1)
  }
  test("reidentification of empty input is 0") {
    val df = Encodings.withFieldBf(PersonGen.database(spark, 1, 0, 5), "fname")
      .where(col("rec_id") < 0)
    assert(FrequencyAttack.reidentificationRate(df, "bf", "fname", population) == 0.0)
  }
  test("oracle: pattern frequency ranking matches DuckDB") {
    import spark.implicits._
    // ties in pattern count (p2/p3, p4/p5/p6) and in value weight
    // (zoe/amy, cal/dan); six patterns against five values
    val enc = (Seq.fill(3)("p1") ++ Seq.fill(2)("p3") ++ Seq.fill(2)("p2") ++
               Seq("p6", "p4", "p5")).zipWithIndex
      .map { case (p, i) => (i.toLong, p) }.toDF("rec_id", "enc")
    val pop = Seq(("zoe", 0.3), ("amy", 0.3), ("bob", 0.2), ("dan", 0.1), ("cal", 0.1))
      .toDF("value", "weight")
    Oracle.assertEquivalent(FrequencyAttack.alignment(enc, "enc", pop),
      """WITH p AS (SELECT upper(hex(enc)) AS pat,
        |                  ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, upper(hex(enc))) AS r
        |           FROM enc GROUP BY upper(hex(enc))),
        |     v AS (SELECT value,
        |                  ROW_NUMBER() OVER (ORDER BY CAST(weight AS DOUBLE) DESC, value) AS r
        |           FROM pop)
        |SELECT p.pat AS pat, v.value AS guess FROM p JOIN v USING (r)""".stripMargin,
      "enc" -> enc.select("enc"), "pop" -> pop)
  }
}
