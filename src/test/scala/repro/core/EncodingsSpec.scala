package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.PersonGen

class EncodingsSpec extends SparkSpec {

  private def people(n: Int) = PersonGen.database(spark, 1, 0, n)

  test("withTokens equals recordGrams") {
    val df = Encodings.withTokens(people(20), Seq("fname", "lname"))
    df.select("fname", "lname", "tokens").collect().foreach { r =>
      val expected = QGrams.recordGrams(Seq(r.getString(0), r.getString(1))).toSeq.sorted
      assert(r.getSeq[String](2) == expected)
    }
  }
  test("withTokens tagged disambiguates fields") {
    val df = Encodings.withTokens(people(5), Seq("fname", "fname"), tagged = true)
    val toks = df.select("tokens").head.getSeq[String](0)
    assert(toks.exists(_.startsWith("0:")) && toks.exists(_.startsWith("1:")))
  }

  test("withClk matches the kernel encoder") {
    val df = Encodings.withClk(people(20), Seq("fname", "lname"), l = 256, k = 10,
                               secret = "k")
    df.select("fname", "lname", "bf").collect().foreach { r =>
      val expected = BloomFilter.encode(
        QGrams.recordGrams(Seq(r.getString(0), r.getString(1))), 256, 10, "k")
      assert(r.getAs[Array[Byte]](2).sameElements(expected))
    }
  }
  test("withClk output is l/8 bytes of BinaryType") {
    val df = Encodings.withClk(people(5), Seq("fname"), l = 512, k = 5)
    assert(df.schema("bf").dataType.typeName == "binary")
    assert(df.select("bf").collect().forall(_.getAs[Array[Byte]](0).length == 64))
  }
  test("withClk deterministic across calls") {
    val a = Encodings.withClk(people(30), Seq("fname", "lname")).select("bf").collect()
    val b = Encodings.withClk(people(30), Seq("fname", "lname")).select("bf").collect()
    a.zip(b).foreach { case (x, y) =>
      assert(x.getAs[Array[Byte]](0).sameElements(y.getAs[Array[Byte]](0)))
    }
  }
  test("withClk saltField changes encodings but stays consistent per record") {
    val p = people(20)
    val plain = Encodings.withClk(p, Seq("fname"), l = 256, k = 8).select("rec_id", "bf")
    val salted = Encodings.withClk(p, Seq("fname"), l = 256, k = 8,
                                   saltField = Some("dob")).select("rec_id", "bf")
    val salted2 = Encodings.withClk(p, Seq("fname"), l = 256, k = 8,
                                    saltField = Some("dob")).select("rec_id", "bf")
    val j = plain.withColumnRenamed("bf", "p")
      .join(salted.withColumnRenamed("bf", "s"), "rec_id")
      .join(salted2.withColumnRenamed("bf", "s2"), "rec_id")
      .collect()
    assert(j.forall(r => !r.getAs[Array[Byte]]("p").sameElements(r.getAs[Array[Byte]]("s"))))
    assert(j.forall(r => r.getAs[Array[Byte]]("s").sameElements(r.getAs[Array[Byte]]("s2"))))
  }

  test("slk581 known construction") {
    // surname 'martinez' -> a,r,i ; first 'jennifer' -> e,n
    assert(Encodings.slk581("jennifer", "martinez", "19800101", "f") ==
      "arien19800101f")
  }
  test("slk581 pads short names with '2'") {
    assert(Encodings.slk581("jo", "li", "19900202", "m") == "i22o219900202m")
  }
  test("slk581 normalizes case") {
    assert(Encodings.slk581("Jennifer", "MARTINEZ", "19800101", "F") ==
      Encodings.slk581("jennifer", "martinez", "19800101", "f"))
  }
  test("withSlk581 emits hmac of the pure key") {
    val df = Encodings.withSlk581(people(10), secret = "k2")
    df.select("fname", "lname", "dob", "gender", "slk").collect().foreach { r =>
      val expected = Hashing.hmacSha256Hex(
        Encodings.slk581(r.getString(0), r.getString(1), r.getString(2), r.getString(3)), "k2")
      assert(r.getString(4) == expected)
    }
  }
  test("slk581 oracle: DuckDB rebuilds the derived key for long names") {
    val df = people(200).where(length(col("fname")) >= 3 && length(col("lname")) >= 5)
    val slkUdf = udf((f: String, l: String, d: String, s: String) =>
      Encodings.slk581(f, l, d, s))
    val sparkOut = df
      .select(col("rec_id").cast("string") as "rec_id",
              slkUdf(col("fname"), col("lname"), col("dob"), col("gender")) as "slk")
    Oracle.assertEquivalent(sparkOut,
      """SELECT rec_id,
        |       substr(lname,2,2) || substr(lname,5,1) ||
        |       substr(fname,2,2) || dob || gender AS slk
        |FROM people""".stripMargin,
      "people" -> df)
  }

  test("withHmacKey equal iff normalized fields equal") {
    import spark.implicits._
    val df = Seq((1L, "Ann", "Lee"), (2L, "ann ", "lee"), (3L, "anne", "lee"))
      .toDF("rec_id", "fname", "lname")
    val keys = Encodings.withHmacKey(df, Seq("fname", "lname"), "k")
      .orderBy("rec_id").select("hkey").collect().map(_.getString(0))
    assert(keys(0) == keys(1))
    assert(keys(0) != keys(2))
  }

  test("soundex standard vectors") {
    assert(Encodings.soundex("Robert") == "R163")
    assert(Encodings.soundex("Rupert") == "R163")
    assert(Encodings.soundex("Ashcraft") == "A261")
    assert(Encodings.soundex("Tymczak") == "T522")
    assert(Encodings.soundex("Honeyman") == "H555")
    assert(Encodings.soundex("Pfister") == "P236")
  }
  test("soundex equal for smith/smyth") {
    assert(Encodings.soundex("smith") == Encodings.soundex("smyth"))
  }
  test("soundex of empty is 0000") {
    assert(Encodings.soundex("") == "0000")
    assert(Encodings.soundex(null) == "0000")
  }
  test("soundex pads to 4") {
    assert(Encodings.soundex("lee").length == 4)
  }
  test("withSoundexKey groups phonetically equal names") {
    import spark.implicits._
    val df = Seq((1L, "smith"), (2L, "smyth"), (3L, "jones")).toDF("rec_id", "lname")
    val keys = Encodings.withSoundexKey(df, Seq("lname"), "k")
      .orderBy("rec_id").select("bkey").collect().map(_.getString(0))
    assert(keys(0) == keys(1))
    assert(keys(0) != keys(2))
    assert(keys(0).length == 64) // hmac hex, not the raw phonetic code
  }
}
