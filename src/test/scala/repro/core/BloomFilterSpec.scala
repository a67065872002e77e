package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

class BloomFilterSpec extends AnyFunSuite {

  private val secret = "test-secret"
  private def enc(s: String, l: Int = 256, k: Int = 10): Array[Byte] =
    BloomFilter.encode(QGrams.qgrams(s), l, k, secret)

  test("empty filter has zero popcount") {
    assert(BloomFilter.popcount(BloomFilter.empty(128)) == 0)
  }
  test("empty rejects non-multiple-of-8 length") {
    assertThrows[IllegalArgumentException](BloomFilter.empty(100))
  }
  test("empty rejects zero length") {
    assertThrows[IllegalArgumentException](BloomFilter.empty(0))
  }
  test("setBit then getBit round-trips every position") {
    for (i <- 0 until 64) {
      val bf = BloomFilter.empty(64)
      BloomFilter.setBit(bf, i)
      assert(BloomFilter.getBit(bf, i))
      assert(BloomFilter.popcount(bf) == 1)
      assert((0 until 64).count(BloomFilter.getBit(bf, _)) == 1)
    }
  }
  test("numBits is 8x byte length") {
    assert(BloomFilter.numBits(BloomFilter.empty(256)) == 256)
  }

  test("encoding is deterministic") {
    assert(enc("peter").sameElements(enc("peter")))
  }
  test("different secrets give different filters") {
    val a = BloomFilter.encode(QGrams.qgrams("peter"), 256, 10, "s1")
    val b = BloomFilter.encode(QGrams.qgrams("peter"), 256, 10, "s2")
    assert(!a.sameElements(b))
  }
  test("salt changes the filter") {
    val a = BloomFilter.encode(QGrams.qgrams("peter"), 256, 10, secret)
    val b = BloomFilter.encode(QGrams.qgrams("peter"), 256, 10, secret, salt = "19800101")
    assert(!a.sameElements(b))
  }
  test("same salt keeps filters equal") {
    val a = BloomFilter.encode(QGrams.qgrams("peter"), 256, 10, secret, salt = "x")
    val b = BloomFilter.encode(QGrams.qgrams("peter"), 256, 10, secret, salt = "x")
    assert(a.sameElements(b))
  }
  test("popcount bounded by k * tokens") {
    val tokens = QGrams.qgrams("alexandra")
    val bf = BloomFilter.encode(tokens, 1024, 10, secret)
    assert(BloomFilter.popcount(bf) <= 10 * tokens.size)
    assert(BloomFilter.popcount(bf) > 0)
  }
  test("empty token set encodes to empty filter") {
    assert(BloomFilter.popcount(BloomFilter.encode(Seq.empty, 128, 5, secret)) == 0)
  }
  test("k must be positive") {
    assertThrows[IllegalArgumentException](BloomFilter.encode(Seq("a"), 128, 0, secret))
  }
  test("superset of tokens is superset of bits") {
    val small = BloomFilter.encode(QGrams.qgrams("pet"), 512, 8, secret)
    val big = BloomFilter.encode(QGrams.qgrams("pet") ++ QGrams.qgrams("dog"), 512, 8, secret)
    assert(BloomFilter.andCount(small, big) == BloomFilter.popcount(small))
  }

  test("dice of identical filters is 1") {
    assert(BloomFilter.dice(enc("peter"), enc("peter")) == 1.0)
  }
  test("dice of two empty filters is 0") {
    assert(BloomFilter.dice(BloomFilter.empty(64), BloomFilter.empty(64)) == 0.0)
  }
  test("dice symmetric") {
    val (a, b) = (enc("jones"), enc("johns"))
    assert(BloomFilter.dice(a, b) == BloomFilter.dice(b, a))
  }
  test("dice in [0,1] over random strings") {
    val gen = Gen.alphaLowerStr.map(_.take(10))
    for (i <- 1 to 100) {
      val a = enc(gen.sample.get + i)
      val b = enc(gen.sample.get + (i * 7))
      val d = BloomFilter.dice(a, b)
      assert(d >= 0.0 && d <= 1.0)
    }
  }
  test("dice ranks similar above dissimilar names") {
    assert(BloomFilter.dice(enc("catherine"), enc("katherine")) >
           BloomFilter.dice(enc("catherine"), enc("bobby")))
  }
  test("dice approximates q-gram dice for large l") {
    // at l=4096, k=8 collisions are rare so BF-dice ~ set-dice
    def enc4k(s: String) = BloomFilter.encode(QGrams.qgrams(s), 4096, 8, secret)
    val setDice = QGrams.dice(QGrams.qgrams("jennifer"), QGrams.qgrams("jenifer"))
    val bfDice = BloomFilter.dice(enc4k("jennifer"), enc4k("jenifer"))
    assert(math.abs(setDice - bfDice) < 0.05, s"set=$setDice bf=$bfDice")
  }
  test("length mismatch rejected") {
    assertThrows[IllegalArgumentException](
      BloomFilter.dice(BloomFilter.empty(64), BloomFilter.empty(128)))
  }

  test("jaccard <= dice") {
    val (a, b) = (enc("martinez"), enc("martines"))
    assert(BloomFilter.jaccard(a, b) <= BloomFilter.dice(a, b))
  }
  test("jaccard identical is 1") {
    assert(BloomFilter.jaccard(enc("x"), enc("x")) == 1.0)
  }
  test("hamming of identical filters is 0") {
    assert(BloomFilter.hamming(enc("peter"), enc("peter")) == 0)
  }
  test("hamming equals |a|+|b|-2c") {
    val (a, b) = (enc("garcia"), enc("gracia"))
    val expected = BloomFilter.popcount(a) + BloomFilter.popcount(b) -
      2 * BloomFilter.andCount(a, b)
    assert(BloomFilter.hamming(a, b) == expected)
  }
  test("orCount equals |a|+|b|-c") {
    val (a, b) = (enc("garcia"), enc("gracia"))
    assert(BloomFilter.orCount(a, b) ==
      BloomFilter.popcount(a) + BloomFilter.popcount(b) - BloomFilter.andCount(a, b))
  }

  test("setPositions matches getBit scan") {
    val a = enc("positions")
    val pos = BloomFilter.setPositions(a)
    assert(pos == (0 until 256).filter(BloomFilter.getBit(a, _)))
    assert(pos.size == BloomFilter.popcount(a))
    assert(pos == pos.sorted)
  }
}
