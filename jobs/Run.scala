package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.PersonGen
import repro.experiments._
import repro.pprl.Pipeline

/** spark-submit entry point for every experiment table and the pipeline
  * demo: `Run <T1|T2|T3|T4|T5|T6|pipeline> [n]`, n the records per party (T4:
  * the entity universe; T6: the largest size; defaults in `Defaults`). A table
  * prints its rows, then one verdict per failed claim, and then exits non-zero.
  */
object Run {

  private val Usage = "usage: Run <T1|T2|T3|T4|T5|T6|pipeline> [n]"

  private val Defaults = Map("T1" -> 1500L, "T2" -> 10000L, "T3" -> 10000L,
    "T4" -> 4000L, "T5" -> 3000L, "T6" -> 40000L, "pipeline" -> 10000L)

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty && Defaults.contains(args(0)), Usage)
    val table = args(0)
    val n = args.lift(1).fold(Defaults(table))(s => s.toLongOption.filter(_ > 0).getOrElse(
      throw new IllegalArgumentException(s"$Usage: n must be a positive integer, got '$s'")))
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-$table")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    val failed = try {
      val (text, verdicts) = table match {
        case "T1" => val r = T1Quality.run(spark, n); (T1Quality.format(r), T1Quality.check(r))
        case "T2" =>
          val p = T2Blocking.Params(n = n); val r = T2Blocking.run(spark, p)
          (T2Blocking.format(r), T2Blocking.check(r, p))
        case "T3" =>
          val r = T3Filtering.run(spark, T3Filtering.Params(n = n))
          (T3Filtering.format(r), T3Filtering.check(r))
        case "T4" =>
          val r = T4MultiParty.run(spark, Seq(3, 5), T4MultiParty.Params(universe = n))
          (T4MultiParty.format(r), T4MultiParty.check(r))
        case "T5" =>
          val r = T5Privacy.run(spark, T5Privacy.Params(n = n))
          (T5Privacy.format(r), T5Privacy.check(r))
        case "T6" =>
          val sizes = T6Scalability.runSizes(spark, Seq(5000L, 10000L, 20000L, 40000L)
                                                      .filter(_ <= n))
          val parts = T6Scalability.runPartitions(spark, math.min(20000L, n))
          (T6Scalability.format(sizes, parts), T6Scalability.check(sizes, parts))
        case "pipeline" =>
          val (a, b) = PersonGen.pair(spark, n, n, n / 2, 0.2)
          val res = Pipeline.run(a, b, Pipeline.Config())
          (s"candidates=${res.nCandidates} matches=${res.nMatches} " +
             res.timings.map { case (s, ms) => s"$s=${ms}ms" }.mkString(" "), Nil)
      }
      println(text)
      println(if (verdicts.isEmpty) "checks: none failed"
              else verdicts.map("check FAILED: " + _).mkString("\n"))
      verdicts
    } finally spark.stop()
    if (failed.nonEmpty) sys.exit(1)
  }
}
