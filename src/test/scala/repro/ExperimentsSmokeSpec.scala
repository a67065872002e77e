package repro

import repro.experiments._

/** Small-scale end-to-end runs of every experiment table. `Run T<k>`
  * regenerates each at full size and prints its check verdicts; here we pin
  * structure and basic shape at test scale so `sbt test` exercises the
  * whole harness (`ChecksSpec` tests the checks themselves).
  */
class ExperimentsSmokeSpec extends SparkSpec {

  test("T1 runs and ranks CLK above SLK under corruption") {
    val rows = T1Quality.run(spark, n = 250, corruptions = Seq(0.0, 0.4))
    assert(rows.size == 10) // 5 encoders × 2 corruption levels
    val at40 = rows.filter(_.corruption == 0.4).map(r => r.encoder -> r.f1).toMap
    assert(at40("clk-dice") > at40("slk-581"), s"$at40")
    assert(at40("clk-dice") > at40("hmac-exact"))
    assert(rows.forall(r => r.f1 >= 0 && r.f1 <= 1))
    assert(T1Quality.format(rows).contains("clk-dice"))
  }
  test("T2 runs; LSH methods beat soundex completeness under corruption") {
    val rows = T2Blocking.run(spark, T2Blocking.Params(n = 600, corruption = 0.4))
    assert(rows.map(_.method) ==
      Seq("cartesian", "soundex-block", "hamming-lsh", "minhash-lsh"))
    val m = rows.map(r => r.method -> r).toMap
    assert(m("cartesian").pc == 1.0 && m("cartesian").rr == 0.0)
    assert(m("hamming-lsh").pc > m("soundex-block").pc)
    assert(m("hamming-lsh").rr > 0.8)
    assert(T2Blocking.format(rows).nonEmpty)
  }
  test("T3 runs; filtering prunes while keeping completeness reasonable") {
    val rows = T3Filtering.run(spark, T3Filtering.Params(
      n = 600, purgeMaxComparisons = 2000))
    assert(rows.size == 5)
    val m = rows.map(r => r.method -> r).toMap
    assert(m("+purging").candidates <= m("soundex-block").candidates)
    assert(m("ppjoin-verified").candidates <= m("ppjoin-len+prefix+pos").candidates)
    assert(rows.forall(r => r.pc >= 0 && r.pc <= 1))
    assert(T3Filtering.format(rows).nonEmpty)
  }
  test("T4 runs for p=3 with sane cluster quality") {
    val res = T4MultiParty.run(spark, Seq(3),
      T4MultiParty.Params(universe = 300, lshTables = 20, lshBits = 16))
    assert(res.links.size == 1)
    val l = res.links.head
    assert(l.comparisons < l.naive)
    assert(l.f1 > 0.6, s"cluster F1 ${l.f1}")
    assert(res.subsets.map(_.m) == Seq(2, 3))
    assert(res.comms.map(_.pattern).distinct.sorted == Seq("ring", "star/LU", "tree"))
    assert(T4MultiParty.format(res).contains("T4a"))
  }
  test("T5 runs; hardening reduces attack success") {
    val rows = T5Privacy.run(spark, T5Privacy.Params(n = 800))
    val m = rows.map(r => r.variant -> r).toMap
    assert(m("field-bf (none)").reidentRate > m("salted (dob)").reidentRate)
    assert(m("field-bf (none)").reidentRate > m("blip f=0.05").reidentRate)
    assert(m("field-bf (none)").f1 > 0.7)
    assert(T5Privacy.format(rows).nonEmpty)
  }
  test("T6 runs at small sizes with full stage timings") {
    val rows = T6Scalability.runSizes(spark, Seq(300, 600),
      T6Scalability.Params(cfg = repro.pprl.Pipeline.Config(
        l = 512, k = 10, lshTables = 20, lshBits = 16)))
    assert(rows.size == 2)
    assert(rows.forall(_.f1 > 0.7))
    assert(rows.forall(_.totalMs > 0))
    val parts = T6Scalability.runPartitions(spark, 400, Seq(2, 8),
      T6Scalability.Params(cfg = repro.pprl.Pipeline.Config(
        l = 512, k = 10, lshTables = 20, lshBits = 16)))
    assert(parts.size == 2)
    val table = T6Scalability.format(rows, parts)
    assert(table.contains("T6a"))
    assert(table.contains("shuffle-partition sweep (n=400 per party)"), table)
  }
}
