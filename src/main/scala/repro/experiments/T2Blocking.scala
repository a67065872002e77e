package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.blocking.{Candidates, HammingLsh, MinHashLsh, StandardBlocking}
import repro.core.Encodings
import repro.data.PersonGen

/** T2 — private blocking techniques: candidate volume, reduction ratio,
  * pairs completeness, runtime. Compares the full cross product (no
  * blocking), hashed-Soundex standard blocking, Hamming-LSH over CLKs,
  * and MinHash-LSH over keyed q-gram tokens, all on the same corrupted
  * two-party input.
  */
object T2Blocking {

  case class Row(method: String, candidates: Long, rr: Double, pc: Double,
                 millis: Long)

  case class Params(n: Long = 10000, overlapFrac: Double = 0.5,
                    corruption: Double = 0.3, l: Int = 1024, k: Int = 30,
                    lshTables: Int = 40, lshBits: Int = 20,
                    // rows=6: person tokens share mass (popular names, a
                    // 50-value city pool), so shallow bands flood candidates
                    bands: Int = 60, rows: Int = 6,
                    secret: String = "s3cret", seed: Long = 42L)

  def run(spark: SparkSession, p: Params = Params()): Seq[Row] = {
    val (a0, b0) = PersonGen.pair(spark, p.n, p.n, (p.n * p.overlapFrac).toLong,
                                  p.corruption, maxEdits = 2, seed = p.seed)
    val fields = Seq("fname", "lname", "city")
    def enrich(df: DataFrame): DataFrame =
      Encodings.withTokens(
        Encodings.withSoundexKey(
          Encodings.withClk(df, fields, p.l, p.k, secret = p.secret),
          Seq("fname", "lname"), p.secret),
        fields)
    val a = enrich(a0).persist(); val b = enrich(b0).persist()
    a.count(); b.count()
    val truth = PersonGen.truthPairs(a, b).persist()
    truth.count()

    def measure(name: String)(gen: => DataFrame): Row = {
      val t0 = System.nanoTime()
      val cand = gen.persist()
      val nCand = cand.count()
      val ms = (System.nanoTime() - t0) / 1000000L
      val pc = Candidates.pairsCompleteness(cand, truth)
      cand.unpersist()
      Row(name, nCand, Candidates.reductionRatio(nCand, p.n, p.n), pc, ms)
    }

    val cartesian = Row("cartesian", p.n * p.n, 0.0, 1.0, 0L)
    val soundex = measure("soundex-block")(StandardBlocking.candidates(a, b, "bkey"))
    val hlsh = measure("hamming-lsh")(HammingLsh.candidatesWithPositions(a, b, "bf",
      HammingLsh.samplePositions(p.l, p.lshTables, p.lshBits, p.seed)))
    val mlsh = measure("minhash-lsh")(
      MinHashLsh.candidates(a, b, "tokens", p.secret, p.bands, p.rows))
    a.unpersist(); b.unpersist(); truth.unpersist()
    Seq(cartesian, soundex, hlsh, mlsh)
  }

  /** EXPERIMENTS.md T2's claim shape, as verdicts ([[Fmt.verdicts]]). */
  def check(rows: Seq[Row], p: Params): Seq[String] = Fmt.verdicts {
    val m = rows.map(r => r.method -> r).toMap
    val soundexPc = m("soundex-block").pc
    Seq(Fmt.claim("cartesian", "candidates", m("cartesian").candidates, "==", p.n * p.n,
                  "n·n = ")) ++
    Seq("soundex-block", "hamming-lsh", "minhash-lsh")
      .map(s => Fmt.claim(s, "RR", m(s).rr, ">", 0.95)) ++
    Seq("hamming-lsh", "minhash-lsh").flatMap(s => Seq(
      Fmt.claim(s, "PC", m(s).pc, ">", soundexPc, "soundex-block PC "),
      Fmt.claim(s, "PC", m(s).pc, ">", 0.93))) :+
    Fmt.claim("soundex-block", "PC", soundexPc, "<", 0.95)
  }

  def format(rows: Seq[Row]): String =
    Fmt.table("T2 — private blocking: candidates, RR, PC",
      Seq("method", "candidates", "RR", "PC", "time"),
      rows.map(r => Seq(r.method, r.candidates.toString, Fmt.f(r.rr, 4),
                        Fmt.f(r.pc), Fmt.secs(r.millis))))
}
