package repro.pprl

import repro.SparkSpec
import repro.data.PersonGen
import repro.matching.Classifier

class PipelineSpec extends SparkSpec {

  private val cfg = Pipeline.Config(l = 512, k = 10, lshTables = 20, lshBits = 16,
                                    threshold = 0.8)

  test("clean data links perfectly") {
    val (a, b) = PersonGen.pair(spark, 300, 300, 150, 0.0)
    val res = Pipeline.run(a, b, cfg.copy(threshold = 0.95))
    val truth = PersonGen.truthPairs(a, b)
    val (p, r, f1) = Classifier.prf(res.matches, truth)
    assert(r > 0.99, s"recall $r")
    assert(p > 0.99, s"precision $p")
    assert(res.nMatches == res.matches.count())
    res.matches.unpersist()
  }
  test("corrupted data still links well") {
    val (a, b) = PersonGen.pair(spark, 500, 500, 250, 0.3)
    val res = Pipeline.run(a, b, cfg)
    val (_, r, f1) = Classifier.prf(res.matches, PersonGen.truthPairs(a, b))
    assert(f1 > 0.8, s"F1 $f1")
    assert(r > 0.75, s"recall $r")
    res.matches.unpersist()
  }
  test("candidates far below cross product") {
    val (a, b) = PersonGen.pair(spark, 500, 500, 250, 0.3)
    val res = Pipeline.run(a, b, cfg)
    assert(res.nCandidates < 500L * 500L / 4, s"${res.nCandidates}")
    res.matches.unpersist()
  }
  test("timings cover all stages") {
    val (a, b) = PersonGen.pair(spark, 100, 100, 50, 0.1)
    val res = Pipeline.run(a, b, cfg)
    assert(res.timings.map(_._1) == Seq("encode", "block", "score", "classify"))
    assert(res.timings.forall(_._2 >= 0))
    assert(res.totalMillis == res.timings.map(_._2).sum)
    assert(res.millis("missing") == 0L)
    res.matches.unpersist()
  }
  test("one-to-one output has unique endpoints") {
    val (a, b) = PersonGen.pair(spark, 300, 300, 150, 0.2)
    val res = Pipeline.run(a, b, cfg)
    val rows = res.matches.collect()
    assert(rows.map(_.getLong(0)).distinct.length == rows.length)
    assert(rows.map(_.getLong(1)).distinct.length == rows.length)
    res.matches.unpersist()
  }
  test("higher threshold yields fewer matches") {
    val (a, b) = PersonGen.pair(spark, 300, 300, 150, 0.3)
    val lo = Pipeline.run(a, b, cfg.copy(threshold = 0.7))
    val hi = Pipeline.run(a, b, cfg.copy(threshold = 0.95))
    assert(hi.nMatches <= lo.nMatches)
    lo.matches.unpersist(); hi.matches.unpersist()
  }
  test("Config rejects out-of-range settings when it is built") {
    assertThrows[IllegalArgumentException](Pipeline.Config(lshBits = 64))
    assertThrows[IllegalArgumentException](Pipeline.Config(lshBits = 0))
    assertThrows[IllegalArgumentException](Pipeline.Config(threshold = 0.0))
    assertThrows[IllegalArgumentException](Pipeline.Config(threshold = 1.01))
    assertThrows[IllegalArgumentException](Pipeline.Config(l = 0))
    assertThrows[IllegalArgumentException](Pipeline.Config(k = 0))
    assertThrows[IllegalArgumentException](Pipeline.Config(q = 0))
    assertThrows[IllegalArgumentException](Pipeline.Config(lshTables = 0))
    assertThrows[IllegalArgumentException](cfg.copy(threshold = -0.5))
    assert(Pipeline.Config(lshBits = 63, threshold = 1.0).lshBits == 63)
  }
  test("no overlap yields almost no matches") {
    val (a, b) = PersonGen.pair(spark, 200, 200, 0, 0.0)
    val res = Pipeline.run(a, b, cfg.copy(threshold = 0.95))
    assert(res.nMatches < 10, s"${res.nMatches} spurious matches")
    res.matches.unpersist()
  }
}
