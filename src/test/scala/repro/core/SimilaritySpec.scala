package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

class SimilaritySpec extends SparkSpec {
  import org.apache.spark.sql.Row

  private def tokenDf = {
    import spark.implicits._
    Seq(
      (1L, Seq("a", "b", "c"), Seq("b", "c", "d")),
      (2L, Seq("a", "b"), Seq("a", "b")),
      (3L, Seq("a"), Seq("b")),
      (4L, Seq.empty[String], Seq.empty[String]),
    ).toDF("id", "x", "y")
  }

  test("tokenJaccard known values") {
    val m = tokenDf.select(col("id"), Similarity.tokenJaccard(col("x"), col("y")) as "j")
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(math.abs(m(1L) - 0.5) < 1e-12)
    assert(m(2L) == 1.0)
    assert(m(3L) == 0.0)
    assert(m(4L) == 0.0)
  }
  test("tokenJaccard handles null arrays") {
    import spark.implicits._
    val df = Seq((1L, Seq("a"))).toDF("id", "x")
      .withColumn("y", lit(null).cast("array<string>"))
    val v = df.select(Similarity.tokenJaccard(col("x"), col("y"))).head.getDouble(0)
    assert(v == 0.0)
  }
}
