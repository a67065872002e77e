package repro.core

/** Pure bit-vector kernel for Bloom-filter encodings.
  *
  * A Bloom filter of length `l` bits is an `Array[Byte]` of `l/8` bytes;
  * bit `i` lives in byte `i / 8` at mask `1 << (i % 8)`. Tokens are mapped
  * with double hashing h_j(t) = h1(t) + j·h2(t) mod l (Kirsch–Mitzenmacher),
  * both base hashes keyed by the parties' shared `secret` — an adversary
  * without the secret cannot recompute bit positions for dictionary values.
  *
  * All set operations here are the reference semantics that the Catalyst
  * expression in [[SimilarityExpressions]] must agree with (tests diff the
  * two implementations).
  */
object BloomFilter {

  /** Allocate an all-zero filter of `l` bits. */
  def empty(l: Int): Array[Byte] = {
    require(l > 0 && l % 8 == 0, s"filter length must be a positive multiple of 8, got $l")
    new Array[Byte](l / 8)
  }

  def numBits(bf: Array[Byte]): Int = bf.length * 8

  def getBit(bf: Array[Byte], i: Int): Boolean =
    (bf(i >>> 3) & (1 << (i & 7))) != 0

  def setBit(bf: Array[Byte], i: Int): Unit =
    bf(i >>> 3) = (bf(i >>> 3) | (1 << (i & 7))).toByte

  /** Encode a token set into a fresh `l`-bit filter with `k` hash
    * functions keyed by `secret`. Optionally salted: the salt is folded
    * into every token so identical values under different salts produce
    * unrelated filters (record-level hardening).
    */
  def encode(tokens: Iterable[String], l: Int, k: Int, secret: String,
             salt: String = ""): Array[Byte] = {
    require(k >= 1, s"need k >= 1 hash functions, got $k")
    val bf = empty(l)
    val it = tokens.iterator
    while (it.hasNext) {
      val t0 = it.next()
      val t = if (salt.isEmpty) t0 else salt + "" + t0
      val h1 = Hashing.tokenHash(t, secret, 0x5bf0)
      val h2 = Hashing.tokenHash(t, secret, 0x9e37)
      var j = 0
      while (j < k) {
        setBit(bf, math.floorMod(h1 + j * h2, l))
        j += 1
      }
    }
    bf
  }

  /** Number of set bits. */
  def popcount(bf: Array[Byte]): Int = {
    var c = 0; var i = 0
    while (i < bf.length) { c += java.lang.Integer.bitCount(bf(i) & 0xff); i += 1 }
    c
  }

  /** Number of bit positions set in both filters. */
  def andCount(a: Array[Byte], b: Array[Byte]): Int = {
    require(a.length == b.length, s"filter lengths differ: ${a.length} vs ${b.length}")
    var c = 0; var i = 0
    while (i < a.length) { c += java.lang.Integer.bitCount(a(i) & b(i) & 0xff); i += 1 }
    c
  }

  /** Number of bit positions set in at least one filter. */
  def orCount(a: Array[Byte], b: Array[Byte]): Int = {
    require(a.length == b.length, s"filter lengths differ: ${a.length} vs ${b.length}")
    var c = 0; var i = 0
    while (i < a.length) { c += java.lang.Integer.bitCount((a(i) | b(i)) & 0xff); i += 1 }
    c
  }

  /** Dice coefficient 2c / (|a|+|b|); 0 when both filters are empty. */
  def dice(a: Array[Byte], b: Array[Byte]): Double = {
    require(a.length == b.length, s"filter lengths differ: ${a.length} vs ${b.length}")
    val denom = popcount(a) + popcount(b)
    if (denom == 0) 0.0 else 2.0 * andCount(a, b) / denom
  }

  /** Jaccard coefficient c / |a ∪ b|; 0 when both filters are empty. */
  def jaccard(a: Array[Byte], b: Array[Byte]): Double = {
    require(a.length == b.length, s"filter lengths differ: ${a.length} vs ${b.length}")
    val u = orCount(a, b)
    if (u == 0) 0.0 else andCount(a, b).toDouble / u
  }

  /** Hamming distance (differing bit positions). */
  def hamming(a: Array[Byte], b: Array[Byte]): Int = {
    require(a.length == b.length, s"filter lengths differ: ${a.length} vs ${b.length}")
    var c = 0; var i = 0
    while (i < a.length) { c += java.lang.Integer.bitCount((a(i) ^ b(i)) & 0xff); i += 1 }
    c
  }

  /** Sorted positions of set bits — the "token set" view used by the
    * PPJoin-style filtering and by the DuckDB oracle tests.
    */
  def setPositions(bf: Array[Byte]): Seq[Int] =
    (0 until numBits(bf)).filter(getBit(bf, _))
}
