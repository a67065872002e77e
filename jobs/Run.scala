package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.PersonGen
import repro.experiments._
import repro.pprl.Pipeline

/** spark-submit entry point for every experiment table and the pipeline
  * demo. Usage: `Run <T1|T2|T3|T4|T5|T6|pipeline> [n]`, where n is the
  * records per party (T4: the entity universe; T6: the largest size) and
  * defaults to 1500 (T1), 10000 (T2, T3, pipeline), 4000 (T4), 3000 (T5)
  * or 40000 (T6).
  */
object Run {

  private val Usage = "usage: Run <T1|T2|T3|T4|T5|T6|pipeline> [n]"

  private val Defaults = Map("T1" -> 1500L, "T2" -> 10000L, "T3" -> 10000L,
    "T4" -> 4000L, "T5" -> 3000L, "T6" -> 40000L, "pipeline" -> 10000L)

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty && Defaults.contains(args(0)), Usage)
    val table = args(0)
    val n = if (args.length > 1) args(1).toLong else Defaults(table)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-$table")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try println(table match {
      case "T1" => T1Quality.format(T1Quality.run(spark, n))
      case "T2" => T2Blocking.format(T2Blocking.run(spark, T2Blocking.Params(n = n)))
      case "T3" => T3Filtering.format(T3Filtering.run(spark, T3Filtering.Params(n = n)))
      case "T4" => T4MultiParty.format(
        T4MultiParty.run(spark, Seq(3, 5), T4MultiParty.Params(universe = n)))
      case "T5" => T5Privacy.format(T5Privacy.run(spark, T5Privacy.Params(n = n)))
      case "T6" =>
        val sizes = Seq(5000L, 10000L, 20000L, 40000L).filter(_ <= n)
        T6Scalability.format(T6Scalability.runSizes(spark, sizes),
                             T6Scalability.runPartitions(spark, math.min(20000L, n)))
      case "pipeline" =>
        val (a, b) = PersonGen.pair(spark, n, n, n / 2, 0.2)
        val res = Pipeline.run(a, b, Pipeline.Config())
        s"candidates=${res.nCandidates} matches=${res.nMatches} " +
          res.timings.map { case (s, ms) => s"$s=${ms}ms" }.mkString(" ")
    })
    finally spark.stop()
  }
}
