package repro.privacy

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{BloomFilter, Encodings}
import repro.data.PersonGen

class HardeningSpec extends SparkSpec {

  private def encoded(n: Int) =
    Encodings.withFieldBf(PersonGen.database(spark, 1, 0, n), "fname",
                          l = 256, k = 10, secret = "h")

  test("blipEpsilon formula") {
    assert(math.abs(Hardening.blipEpsilon(0.05) - math.log(0.95 / 0.05)) < 1e-12)
  }
  test("blipEpsilon rejects out-of-range f") {
    assertThrows[IllegalArgumentException](Hardening.blipEpsilon(0.0))
    assertThrows[IllegalArgumentException](Hardening.blipEpsilon(0.5))
  }
  test("blip f=0 is identity") {
    val df = encoded(20)
    val out = Hardening.blip(df, "bf", 0.0)
    val both = df.select(col("rec_id"), col("bf") as "orig")
      .join(out.select(col("rec_id"), col("bf") as "blipped"), "rec_id").collect()
    assert(both.forall(r =>
      r.getAs[Array[Byte]]("orig").sameElements(r.getAs[Array[Byte]]("blipped"))))
  }
  test("blip flips roughly f of bits") {
    val df = encoded(100)
    val out = Hardening.blip(df, "bf", 0.10)
    val flips = df.select(col("rec_id"), col("bf") as "o")
      .join(out.select(col("rec_id"), col("bf") as "b"), "rec_id")
      .collect()
      .map(r => BloomFilter.hamming(r.getAs[Array[Byte]]("o"), r.getAs[Array[Byte]]("b")))
    val rate = flips.sum.toDouble / (100 * 256)
    assert(math.abs(rate - 0.10) < 0.02, s"flip rate $rate")
  }
  test("blip deterministic per record and seed") {
    val df = encoded(20)
    val a = Hardening.blip(df, "bf", 0.1).select("rec_id", "bf").collect()
    val b = Hardening.blip(df, "bf", 0.1).select("rec_id", "bf").collect()
    a.zip(b).foreach { case (x, y) =>
      assert(x.getAs[Array[Byte]](1).sameElements(y.getAs[Array[Byte]](1)))
    }
  }
  test("blip differs across records") {
    val df = encoded(50)
    // two records with the same fname get different flip patterns
    val rows = df.select(col("rec_id"), col("fname"), col("bf")).collect()
    val byName = rows.groupBy(_.getString(1)).filter(_._2.length >= 2)
    assume(byName.nonEmpty)
    val out = Hardening.blip(df, "bf", 0.1).collect()
      .map(r => r.getAs[Long]("rec_id") -> r.getAs[Array[Byte]]("bf")).toMap
    val g = byName.head._2
    assert(!out(g(0).getLong(0)).sameElements(out(g(1).getLong(0))))
  }
  test("blip rejects f >= 0.5") {
    assertThrows[IllegalArgumentException](Hardening.blip(encoded(2), "bf", 0.6))
  }
  test("blip preserves similarity better at lower f") {
    val (a0, b0) = PersonGen.pair(spark, 200, 200, 100, 0.0)
    def clk(df: org.apache.spark.sql.DataFrame) =
      Encodings.withClk(df, Seq("fname", "lname"), l = 512, k = 15, secret = "h")
    def meanMatchDice(f: Double): Double = {
      val ea = if (f == 0) clk(a0) else Hardening.blip(clk(a0), "bf", f, seed = 1L)
      val eb = if (f == 0) clk(b0) else Hardening.blip(clk(b0), "bf", f, seed = 2L)
      val truth = PersonGen.truthPairs(a0, b0)
      repro.matching.Scoring.withDice(truth, ea, eb)
        .agg(avg("sim")).head.getDouble(0)
    }
    val d0 = meanMatchDice(0.0)
    val d2 = meanMatchDice(0.02)
    val d10 = meanMatchDice(0.10)
    assert(d0 > d2 && d2 > d10, s"$d0, $d2, $d10")
    assert(d0 == 1.0)
  }
}
