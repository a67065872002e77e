package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

/** Each table's `check`, on hand-built rows (no Spark): the rows of
  * EXPERIMENTS.md pass every claim, and a copy that breaks exactly one
  * claim yields exactly one verdict, naming the row that broke it.
  */
class ChecksSpec extends AnyFunSuite {

  private def brokenOnce(verdicts: Seq[String], row: String): Unit = {
    assert(verdicts.size == 1, verdicts)
    assert(verdicts.head.contains(row), verdicts)
  }

  test("T1 check: CLK F1 at or below SLK's under 40% corruption fails") {
    val f1s = Seq(
      0.0 -> Seq(1.000, 1.000, 0.999, 0.999, 1.000),
      0.2 -> Seq(0.914, 0.930, 0.936, 0.973, 0.976),
      0.4 -> Seq(0.823, 0.858, 0.902, 0.949, 0.966))
    val recalls = Map(0.0 -> 1.0, 0.2 -> 0.841, 0.4 -> 0.699)
    val rows = for {
      (corr, f1) <- f1s
      (enc, f) <- Seq("hmac-exact", "slk-581", "field-bf-dice", "clk-dice", "plain-qgram").zip(f1)
    } yield T1Quality.Row(enc, corr, 0.9, 1.0,
                          if (enc == "hmac-exact") recalls(corr) else 0.95, f, 0L)
    assert(T1Quality.check(rows).isEmpty)
    brokenOnce(T1Quality.check(rows.map(r =>
      if (r.encoder == "slk-581" && r.corruption == 0.4) r.copy(f1 = 0.950) else r)),
      "clk-dice @ 40.0%: F1 0.9490 is not > slk-581 F1 0.9500")
    brokenOnce(T1Quality.check(rows.filterNot(r =>
      r.encoder == "hmac-exact" && r.corruption == 0.4)), "missing row")
  }

  test("T2 check: soundex PC above hamming-lsh PC fails") {
    val rows = Seq(
      T2Blocking.Row("cartesian", 100000000L, 0.0, 1.0, 0L),
      T2Blocking.Row("soundex-block", 203896L, 0.9980, 0.831, 0L),
      T2Blocking.Row("hamming-lsh", 735667L, 0.9926, 0.985, 0L),
      T2Blocking.Row("minhash-lsh", 1220796L, 0.9878, 0.991, 0L))
    val p = T2Blocking.Params(n = 10000)
    assert(T2Blocking.check(rows, p).isEmpty)
    brokenOnce(T2Blocking.check(rows.map(r => r.method match {
      case "soundex-block" => r.copy(pc = 0.945)
      case "hamming-lsh" => r.copy(pc = 0.940)
      case _ => r
    }), p), "hamming-lsh: PC 0.9400 is not > soundex-block PC 0.9450")
    brokenOnce(T2Blocking.check(rows, p.copy(n = 600)),
      "cartesian: candidates 100000000 is not == n·n = 360000")
  }

  test("T3 check: purging that keeps more comparisons than blocking fails") {
    val rows = Seq(
      T3Filtering.Row("soundex-block", 203896L, 0.831, 0.020, 0L),
      T3Filtering.Row("+purging", 141608L, 0.809, 0.029, 0L),
      T3Filtering.Row("+wnp-metablocking", 142857L, 0.878, 0.031, 0L),
      T3Filtering.Row("ppjoin-len+prefix+pos", 5288551L, 0.975, 0.001, 0L),
      T3Filtering.Row("ppjoin-verified", 35870L, 0.933, 0.130, 0L))
    assert(T3Filtering.check(rows).isEmpty)
    brokenOnce(T3Filtering.check(rows.map(r =>
      if (r.method == "+purging") r.copy(candidates = 203896L) else r)),
      "+purging: candidates 203896 is not < soundex-block 203896")
  }

  test("T4 check: ring not 1.5x star/LU at p=5 fails") {
    val res = T4MultiParty.Result(
      Seq(T4MultiParty.LinkRow(3, 708074L, 17284684L, 2343L, 0.990, 0.873, 0.928, 0L),
          T4MultiParty.LinkRow(5, 2348643L, 57167583L, 3493L, 0.991, 0.882, 0.933, 0L)),
      Seq((3, 2, 2343L, 2599L), (3, 3, 724L, 871L), (5, 2, 3493L, 3653L),
          (5, 3, 2454L, 2727L), (5, 4, 1082L, 1304L), (5, 5, 228L, 307L))
        .map { case (p, m, est, tru) => T4MultiParty.SubsetRow(p, m, est, tru) },
      Seq((3, "star/LU", 3L, 0.9), (3, "ring", 2L, 0.9), (3, "tree", 2L, 0.6),
          (5, "star/LU", 5L, 1.5), (5, "ring", 4L, 2.9), (5, "tree", 4L, 1.5))
        .map { case (p, pat, msgs, mb) => T4MultiParty.CommRow(p, pat, msgs, mb) })
    assert(T4MultiParty.check(res).isEmpty)
    brokenOnce(T4MultiParty.check(res.copy(comms = res.comms.map(c =>
      if (c.p == 5 && c.pattern == "ring") c.copy(megabytes = 2.0) else c))),
      "T4c p=5: ring MB 2.0000 is not > 1.5 × star/LU MB 2.2500")
  }

  test("T5 check: salting that leaves the attack working fails") {
    val rows = Seq(
      T5Privacy.Row("field-bf (none)", Double.PositiveInfinity, 0.599, 0.967),
      T5Privacy.Row("clk (record-level)", Double.PositiveInfinity, 0.001, 0.967),
      T5Privacy.Row("salted (dob)", Double.PositiveInfinity, 0.0, 0.987),
      T5Privacy.Row("blip f=0.02", 3.89, 0.002, 0.962),
      T5Privacy.Row("blip f=0.05", 2.94, 0.0, 0.956))
    assert(T5Privacy.check(rows).isEmpty)
    brokenOnce(T5Privacy.check(rows.map(r =>
      if (r.variant == "salted (dob)") r.copy(reidentRate = 0.06) else r)),
      "salted (dob): re-ident 0.0600 is not < 0.0500")
  }

  test("T6 check: 16 partitions no faster than 1 fails") {
    val sizes = Seq((5000L, 32729L, 3300L), (10000L, 125780L, 2900L),
                    (20000L, 495677L, 4100L), (40000L, 1994710L, 4700L))
      .map { case (n, cands, ms) =>
        T6Scalability.SizeRow(n, cands, n / 2, 0.96, 300L, 1200L, 1200L, 700L, ms) }
    val parts = Seq(1 -> 5100L, 4 -> 3000L, 16 -> 2800L)
      .map { case (k, ms) => T6Scalability.PartRow(20000L, k, ms) }
    assert(T6Scalability.check(sizes, parts).isEmpty)
    brokenOnce(T6Scalability.check(sizes, parts.map(r =>
      if (r.partitions == 16) r.copy(totalMs = 5100L) else r)),
      "T6b partitions=16: total ms 5100 is not < partitions=1 total ms 5100")
  }

  test("a claim on NaN fails, and names its bound") {
    assert(!Fmt.claim("r", "F1", Double.NaN, ">", 0.8)._1)
    assert(!Fmt.claim("r", "F1", Double.NaN, "<=", 0.8)._1)
    assert(Fmt.claim("r", "candidates", 5L, "<", 4L, "cap ") ==
      (false, "r: candidates 5 is not < cap 4"))
  }
}
