package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.PersonGen

class SimilarityExpressionsSpec extends SparkSpec {

  private val secret = "expr-secret"

  private def encoded(n: Int, party: Int) =
    Encodings.withClk(PersonGen.database(spark, party, 0, n,
                        corruptionRate = if (party == 1) 0.0 else 0.5, seed = 11L),
                      Seq("fname", "lname"), l = 256, k = 10, secret = secret)
      .select("rec_id", "bf")

  private def pairs(n: Int) =
    encoded(n, 1).withColumnRenamed("rec_id", "id_a").withColumnRenamed("bf", "bf_a")
      .crossJoin(encoded(n, 2).withColumnRenamed("rec_id", "id_b")
        .withColumnRenamed("bf", "bf_b"))

  test("diceSim column matches the kernel") {
    val rows = pairs(12)
      .select(col("bf_a"), col("bf_b"),
              SimilarityExpressions.diceSim(col("bf_a"), col("bf_b")) as "sim")
      .collect()
    assert(rows.nonEmpty)
    rows.foreach { r =>
      val expected = BloomFilter.dice(r.getAs[Array[Byte]](0), r.getAs[Array[Byte]](1))
      assert(math.abs(r.getDouble(2) - expected) < 1e-12)
    }
  }
  test("identical filters give dice=jaccard=1, hamming=0") {
    val df = encoded(8, 1)
    val self = df.withColumnRenamed("bf", "bf_a")
      .join(df.withColumnRenamed("bf", "bf_b"), "rec_id")
      .select(col("bf_a"), col("bf_b"),
              SimilarityExpressions.diceSim(col("bf_a"), col("bf_b")) as "d")
      .collect()
    assert(self.forall { r =>
      val (a, b) = (r.getAs[Array[Byte]](0), r.getAs[Array[Byte]](1))
      r.getDouble(2) == 1.0 && BloomFilter.jaccard(a, b) == 1.0 && BloomFilter.hamming(a, b) == 0
    })
  }
  test("null input propagates null") {
    val df = encoded(3, 1).withColumn("nullbf", lit(null).cast("binary"))
    val rows = df.select(SimilarityExpressions.diceSim(col("bf"), col("nullbf"))).collect()
    assert(rows.forall(_.isNullAt(0)))
  }

  test("dice oracle: DuckDB recomputes dice from exploded bit positions") {
    val posUdf = udf((bf: Array[Byte]) => BloomFilter.setPositions(bf).map(_.toString))
    val ea = encoded(10, 1)
    val eb = encoded(10, 2)
    val pa = ea.select(col("rec_id").cast("string") as "id",
                       explode(posUdf(col("bf"))) as "pos")
    val pb = eb.select(col("rec_id").cast("string") as "id",
                       explode(posUdf(col("bf"))) as "pos")
    val sparkOut = ea.withColumnRenamed("rec_id", "id_a").withColumnRenamed("bf", "bf_a")
      .crossJoin(eb.withColumnRenamed("rec_id", "id_b").withColumnRenamed("bf", "bf_b"))
      .select(col("id_a").cast("string") as "id_a", col("id_b").cast("string") as "id_b",
              SimilarityExpressions.diceSim(col("bf_a"), col("bf_b")) as "sim")
      .where(col("sim") > 0)
    Oracle.assertEquivalent(sparkOut,
      """SELECT a.id AS id_a, b.id AS id_b,
        |       2.0 * COUNT(*) / (ca.cnt + cb.cnt) AS sim
        |FROM pa a
        |JOIN pb b ON a.pos = b.pos
        |JOIN (SELECT id, COUNT(*) cnt FROM pa GROUP BY id) ca ON ca.id = a.id
        |JOIN (SELECT id, COUNT(*) cnt FROM pb GROUP BY id) cb ON cb.id = b.id
        |GROUP BY a.id, b.id, ca.cnt, cb.cnt""".stripMargin,
      "pa" -> pa, "pb" -> pb)
  }
}
