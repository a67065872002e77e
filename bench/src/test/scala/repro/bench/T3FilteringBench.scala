package repro.bench

import repro.SparkSpec
import repro.experiments.T3Filtering

/** Bench for Table T3: meta-blocking and filtering. Claim shape: each
  * pruning stage cuts comparisons while pairs completeness degrades far
  * more slowly; PPJoin filtering reaches much higher pairs quality than
  * raw blocking.
  */
class T3FilteringBench extends SparkSpec {

  test("T3 — meta-blocking & filtering") {
    val rows = T3Filtering.run(spark, T3Filtering.Params(n = 10000))
    println(T3Filtering.format(rows))
    val m = rows.map(r => r.method -> r).toMap

    assert(m("+purging").candidates < m("soundex-block").candidates,
      "purging must drop comparisons")
    assert(m("+wnp-metablocking").pc > 0.7, s"WNP PC ${m("+wnp-metablocking").pc}")
    // filtering prunes the candidate space and verification is a subset
    assert(m("ppjoin-verified").candidates <= m("ppjoin-len+prefix+pos").candidates)
    // verified pairs are near-pure relative to raw blocking
    assert(m("ppjoin-verified").pq > m("soundex-block").pq,
      s"verified PQ ${m("ppjoin-verified").pq} vs block PQ ${m("soundex-block").pq}")
    // completeness at the verified stage stays useful
    assert(m("ppjoin-verified").pc > 0.6, s"verified PC ${m("ppjoin-verified").pc}")
  }
}
