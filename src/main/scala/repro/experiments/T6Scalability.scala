package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.data.PersonGen
import repro.matching.Classifier
import repro.pprl.Pipeline

/** T6 — scalability of the full PPRL pipeline as distributed dataflow:
  * wall time and stage breakdown versus dataset size, plus a shuffle-
  * partition sweep at fixed size to show parallel speedup. With LSH
  * blocking the candidate count grows near-linearly in n, so total time
  * should too — the contrast with the quadratic cross product.
  */
object T6Scalability {

  case class SizeRow(n: Long, candidates: Long, matches: Long, f1: Double,
                     encodeMs: Long, blockMs: Long, scoreMs: Long,
                     classifyMs: Long, totalMs: Long)
  case class PartRow(n: Long, partitions: Int, totalMs: Long)

  case class Params(corruption: Double = 0.2, overlapFrac: Double = 0.5,
                    cfg: Pipeline.Config = Pipeline.Config(), seed: Long = 42L)

  def runSizes(spark: SparkSession, sizes: Seq[Long] = Seq(5000, 10000, 20000, 40000),
               prm: Params = Params()): Seq[SizeRow] =
    sizes.map { n =>
      val (a, b) = PersonGen.pair(spark, n, n, (n * prm.overlapFrac).toLong,
                                  prm.corruption, maxEdits = 2, seed = prm.seed)
      val truth = PersonGen.truthPairs(a, b)
      val res = Pipeline.run(a, b, prm.cfg)
      val (_, _, f1) = Classifier.prf(res.matches, truth)
      res.matches.unpersist()
      SizeRow(n, res.nCandidates, res.nMatches, f1,
              res.millis("encode"), res.millis("block"), res.millis("score"),
              res.millis("classify"), res.totalMillis)
    }

  /** Median total time of 5 runs per partition count, taken interleaved
    * (1, 4, 16, 16, 4, 1, …) so host drift hits every count alike.
    */
  def runPartitions(spark: SparkSession, n: Long = 20000,
                    partitions: Seq[Int] = Seq(1, 4, 16),
                    prm: Params = Params()): Seq[PartRow] = {
    val before = spark.conf.get("spark.sql.shuffle.partitions")
    val order = (0 until 5).flatMap(r => if (r % 2 == 0) partitions else partitions.reverse)
    val ms = try {
      order.map { parts =>
        spark.conf.set("spark.sql.shuffle.partitions", parts.toString)
        val (a0, b0) = PersonGen.pair(spark, n, n, (n * prm.overlapFrac).toLong,
                                      prm.corruption, maxEdits = 2, seed = prm.seed)
        val res = Pipeline.run(a0.repartition(parts), b0.repartition(parts), prm.cfg)
        res.matches.unpersist()
        parts -> res.totalMillis
      }
    } finally spark.conf.set("spark.sql.shuffle.partitions", before)
    partitions.map(p => PartRow(n, p, ms.collect { case (`p`, t) => t }.sorted.apply(2)))
  }

  /** EXPERIMENTS.md T6's claim shape, as verdicts ([[Fmt.verdicts]]). Zipf skew
    * makes popular-name families quadratic: candidates may grow 4× per doubling.
    */
  def check(sizeRows: Seq[SizeRow], partRows: Seq[PartRow]): Seq[String] = Fmt.verdicts {
    val growths = sizeRows.zip(sizeRows.drop(1)).map { case (a, b) =>
      (s"T6a n=${a.n}→${b.n}", b.candidates.toDouble / a.candidates) }
    val (first, last) = (sizeRows.head, sizeRows.last)
    val ms = partRows.map(r => r.partitions -> r.totalMs).toMap
    sizeRows.map(r => Fmt.claim(s"T6a n=${r.n}", "F1", r.f1, ">", 0.8)) ++
    growths.map { case (row, g) => Fmt.claim(row, "candidate growth", g, "<", 4.4) } ++
    Seq((growths.exists(_._2 < 4.0), s"T6a: no candidate growth below 4.0 in $growths"),
        Fmt.claim(s"T6a n=${first.n}→${last.n}", "total time growth",
                  last.totalMs.toDouble / first.totalMs, "<", 8.0),
        Fmt.claim("T6b partitions=16", "total ms", ms(16), "<", ms(1),
                  "partitions=1 total ms "))
  }

  def format(sizeRows: Seq[SizeRow], partRows: Seq[PartRow]): String = {
    val t1 = Fmt.table("T6a — pipeline scaling with dataset size (per party)",
      Seq("n", "candidates", "matches", "F1", "encode", "block", "score", "classify", "total"),
      sizeRows.map(r => Seq(r.n.toString, r.candidates.toString, r.matches.toString,
                            Fmt.f(r.f1), Fmt.secs(r.encodeMs), Fmt.secs(r.blockMs),
                            Fmt.secs(r.scoreMs), Fmt.secs(r.classifyMs),
                            Fmt.secs(r.totalMs))))
    val t2 = Fmt.table(s"T6b — shuffle-partition sweep (n=${partRows.map(_.n).distinct.mkString("/")} per party)",
      Seq("partitions", "total"),
      partRows.map(r => Seq(r.partitions.toString, Fmt.secs(r.totalMs))))
    s"$t1\n\n$t2"
  }
}
