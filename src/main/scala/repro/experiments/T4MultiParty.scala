package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Encodings
import repro.data.PersonGen
import repro.matching.{Classifier, Clustering, MultiParty}

/** T4 — multi-party linkage (yet-to-come axis): p ∈ {3, 5} parties, CLK
  * encodings, one party-tagged Hamming-LSH join + one Dice scoring join
  * over all party pairs, connected-components clustering, subset matching
  * (entities in ≥ m of p parties), and the analytic communication-pattern
  * costs.
  */
object T4MultiParty {

  case class LinkRow(p: Int, comparisons: Long, naive: Long,
                     clusters: Long, precision: Double, recall: Double,
                     f1: Double, millis: Long)
  case class SubsetRow(p: Int, m: Int, estimated: Long, truth: Long)
  case class CommRow(p: Int, pattern: String, messages: Long, megabytes: Double)

  // k=10 keeps BF fill ≈ 0.35: at 50% fill the *baseline* cross-Dice of
  // unrelated filters is ≈ 0.5, which lifts name-sharing non-matches over
  // a 0.8 threshold and lets connected components snowball into giant
  // clusters. Low fill + threshold 0.9 keeps clusters entity-pure.
  case class Params(universe: Long = 4000, inclusionProb: Double = 0.6,
                    corruption: Double = 0.2, l: Int = 1024, k: Int = 10,
                    lshTables: Int = 40, lshBits: Int = 20,
                    threshold: Double = 0.9, secret: String = "s3cret",
                    seed: Long = 42L)

  case class Result(links: Seq[LinkRow], subsets: Seq[SubsetRow], comms: Seq[CommRow])

  def run(spark: SparkSession, ps: Seq[Int] = Seq(3, 5),
          prm: Params = Params()): Result = {
    val perP = ps.map { p =>
      val t0 = System.nanoTime()
      val parties = PersonGen.parties(spark, p, prm.universe, prm.inclusionProb,
                                      prm.corruption, maxEdits = 2, seed = prm.seed).map(df =>
        // dob included: popular-name collisions would otherwise merge clusters
        Encodings.withClk(df, Seq("fname", "lname", "dob", "city"), prm.l, prm.k,
                          secret = prm.secret)
          .select("rec_id", "ent_id", "bf").persist())
      val sizes = parties.map(_.count())

      val (edges, comparisons) = MultiParty.pairwiseEdges(
        parties, "bf", prm.l, prm.lshTables, prm.lshBits, prm.threshold, prm.seed)
      val comp = MultiParty.clusters(edges).persist()
      val nClusters = comp.select("comp").distinct().count()

      // pairwise cluster quality vs ground-truth cross-party pairs
      val predPairs = Clustering.clusterPairs(comp)
      val all = parties.reduce(_ unionByName _)
      val truthPairs = PersonGen.truthPairs(all, all)
        .where(MultiParty.party(col("id_a")) < MultiParty.party(col("id_b")))
      val (prec, rec, f1) = Classifier.prf(predPairs, truthPairs)
      val ms = (System.nanoTime() - t0) / 1000000L
      val link = LinkRow(p, comparisons, MultiParty.naiveComparisons(sizes),
                         nClusters, prec, rec, f1, ms)

      // subset matching: estimated (clusters spanning >= m parties) vs truth
      val truthCounts = all.groupBy("ent_id")
        .agg(countDistinct(MultiParty.party(col("rec_id"))) as "parties").persist()
      val subsets = (2 to p).map(m => SubsetRow(p, m, MultiParty.subsetMatchCount(comp, m),
                                                truthCounts.where(col("parties") >= m).count()))
      truthCounts.unpersist()

      val comms = MultiParty.commCosts(sizes, prm.l / 8L)
        .map(c => CommRow(p, c.pattern, c.messages, c.bytes / 1048576.0))
      comp.unpersist(); parties.foreach(_.unpersist())
      (link, subsets, comms)
    }
    Result(perP.map(_._1), perP.flatMap(_._2), perP.flatMap(_._3))
  }

  /** EXPERIMENTS.md T4's claim shape, as verdicts ([[Fmt.verdicts]]). The
    * subset-match error budget is wide because one missed edge can split a
    * cluster that spans all p parties.
    */
  def check(r: Result): Seq[String] = Fmt.verdicts {
    val mb = r.comms.map(c => (c.p, c.pattern) -> c.megabytes).toMap
    r.links.flatMap(l => Seq(
      Fmt.claim(s"T4a p=${l.p}", "comparisons", l.comparisons, "<", l.naive / 20,
                "naive / 20 = "),
      Fmt.claim(s"T4a p=${l.p}", "F1", l.f1, ">", 0.8))) ++
    r.subsets.filter(_.truth > 0).map(s => Fmt.claim(s"T4b p=${s.p} m=${s.m}",
      s"rel err of ${s.estimated} vs ${s.truth}",
      math.abs(s.estimated - s.truth).toDouble / s.truth, "<", 0.30)) ++
    r.links.map(_.p).flatMap { p =>
      val ests = r.subsets.filter(_.p == p).sortBy(_.m).map(_.estimated)
      Seq((ests.zip(ests.drop(1)).forall { case (a, b) => b <= a },
            s"T4b p=$p: estimates ${ests.mkString(", ")} rise with m"),
          Fmt.claim(s"T4c p=$p", "ring MB", mb((p, "ring")), ">=", 0.99 * mb((p, "star/LU")),
                    "0.99 × star/LU MB "),
          Fmt.claim(s"T4c p=$p", "tree MB", mb((p, "tree")), "<=", mb((p, "ring")), "ring MB "))
    } :+
    Fmt.claim("T4c p=5", "ring MB", mb((5, "ring")), ">", 1.5 * mb((5, "star/LU")),
              "1.5 × star/LU MB ")
  }

  def format(r: Result): String = {
    val t1 = Fmt.table("T4a — multi-party linkage quality & cost",
      Seq("p", "comparisons", "naive pairs", "clusters", "precision", "recall", "F1", "time"),
      r.links.map(x => Seq(x.p.toString, x.comparisons.toString, x.naive.toString,
                           x.clusters.toString, Fmt.f(x.precision), Fmt.f(x.recall),
                           Fmt.f(x.f1), Fmt.secs(x.millis))))
    val t2 = Fmt.table("T4b — subset matching (entities in >= m of p parties)",
      Seq("p", "m", "estimated", "truth", "rel err"),
      r.subsets.map(x => Seq(x.p.toString, x.m.toString, x.estimated.toString,
                             x.truth.toString,
                             Fmt.pct(if (x.truth == 0) 0.0
                                     else math.abs(x.estimated - x.truth).toDouble / x.truth))))
    val t3 = Fmt.table("T4c — communication patterns (analytic model)",
      Seq("p", "pattern", "messages", "MB moved"),
      r.comms.map(x => Seq(x.p.toString, x.pattern, x.messages.toString,
                           Fmt.f(x.megabytes, 1))))
    s"$t1\n\n$t2\n\n$t3"
  }
}
