package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** DataFrame encoders: every privacy masking the tutorial surveys, as a
  * `DataFrame => DataFrame` that appends an encoded column. Nothing a
  * party exchanges is plaintext — records leave as HMAC keys, hashed
  * phonetic codes, or Bloom filters.
  */
object Encodings {

  // ---------------------------------------------------------------- tokens

  /** UDF column: distinct q-gram tokens of the given string fields
    * (optionally field-tagged), as `array<string>`.
    */
  def tokensCol(fields: Seq[Column], q: Int = 2, tagged: Boolean = false): Column = {
    val f = udf((vs: Seq[String]) => QGrams.recordGrams(vs, q, pad = true, tagged = tagged).toSeq.sorted)
    f(array(fields: _*))
  }

  /** Append `out` = q-gram token array over `fields`. */
  def withTokens(df: DataFrame, fields: Seq[String], q: Int = 2,
                 tagged: Boolean = false, out: String = "tokens"): DataFrame =
    df.withColumn(out, tokensCol(fields.map(col), q, tagged))

  // ----------------------------------------------------- Bloom filters (BF)

  /** Append `out` = CLK Bloom filter (`BinaryType`): the union of q-grams
    * of all `fields` hashed into one l-bit filter with k functions keyed by
    * `secret`. `saltField` (e.g. DOB) hardens the encoding: the salt value
    * is folded into every token hash, defeating global frequency alignment
    * (privacy hardening, DESIGN.md T5).
    */
  def withClk(df: DataFrame, fields: Seq[String], l: Int = 1024, k: Int = 30,
              q: Int = 2, secret: String = "s3cret", tagged: Boolean = false,
              saltField: Option[String] = None, out: String = "bf"): DataFrame = {
    val enc = udf((vs: Seq[String], salt: String) =>
      BloomFilter.encode(QGrams.recordGrams(vs, q, pad = true, tagged = tagged),
                         l, k, secret, if (salt == null) "" else salt))
    val saltCol = saltField.map(col).getOrElse(lit(""))
    df.withColumn(out, enc(array(fields.map(col): _*), saltCol))
  }

  /** Append `out` = field-level Bloom filter of a single string field. */
  def withFieldBf(df: DataFrame, field: String, l: Int = 256, k: Int = 15,
                  q: Int = 2, secret: String = "s3cret",
                  saltField: Option[String] = None, out: String = "bf"): DataFrame =
    withClk(df, Seq(field), l, k, q, secret, tagged = false, saltField, out)

  // ------------------------------------------------- derived / exact keys

  /** SLK-581 (AIHW): 2nd+3rd letters of first name, 2nd+3rd+5th of
    * surname, DOB (yyyymmdd), sex. Missing positions pad with '2', the
    * AIHW convention. Pure function so the DuckDB oracle can rebuild it.
    */
  def slk581(fname: String, lname: String, dob: String, sex: String): String = {
    def pick(s: String, idx: Seq[Int]): String = {
      val n = QGrams.normalize(s)
      idx.map(i => if (i < n.length) n.charAt(i) else '2').mkString
    }
    pick(lname, Seq(1, 2, 4)) + pick(fname, Seq(1, 2)) +
      (if (dob == null) "" else dob) + QGrams.normalize(sex)
  }

  /** Append `out` = HMAC(SLK-581) — the exchanged form of the key. */
  def withSlk581(df: DataFrame, fname: String = "fname", lname: String = "lname",
                 dob: String = "dob", sex: String = "gender",
                 secret: String = "s3cret", out: String = "slk"): DataFrame = {
    val f = udf((fn: String, ln: String, d: String, s: String) =>
      Hashing.hmacSha256Hex(slk581(fn, ln, d, s), secret))
    df.withColumn(out, f(col(fname), col(lname), col(dob), col(sex)))
  }

  /** Append `out` = HMAC of the normalized concatenation of `fields` —
    * exact-match linkage on an encrypted key ("past" era baseline).
    */
  def withHmacKey(df: DataFrame, fields: Seq[String],
                  secret: String = "s3cret", out: String = "hkey"): DataFrame = {
    val f = udf((vs: Seq[String]) =>
      Hashing.hmacSha256Hex(vs.map(QGrams.normalize).mkString("|"), secret))
    df.withColumn(out, f(array(fields.map(col): _*)))
  }

  /** American Soundex code (pure, for phonetic blocking keys). */
  def soundex(s: String): String = {
    val n = QGrams.normalize(s).filter(c => c >= 'a' && c <= 'z')
    if (n.isEmpty) "0000"
    else {
      def code(c: Char): Char = c match {
        case 'b' | 'f' | 'p' | 'v'                         => '1'
        case 'c' | 'g' | 'j' | 'k' | 'q' | 's' | 'x' | 'z' => '2'
        case 'd' | 't'                                     => '3'
        case 'l'                                           => '4'
        case 'm' | 'n'                                     => '5'
        case 'r'                                           => '6'
        case _                                             => '0' // vowels + h, w, y
      }
      val codes = n.map(code)
      // collapse runs, treating h/w as transparent separators
      val sb = new StringBuilder
      var last = codes.head
      for (i <- 1 until n.length) {
        val c = codes(i)
        if (n(i) == 'h' || n(i) == 'w') ()
        else {
          if (c != '0' && c != last) sb.append(c)
          last = c
        }
      }
      (n.head.toUpper + sb.toString).padTo(4, '0').take(4)
    }
  }

  /** Append `out` = HMAC of concatenated Soundex codes of `fields` — the
    * hashed phonetic blocking key exchanged for standard blocking.
    */
  def withSoundexKey(df: DataFrame, fields: Seq[String],
                     secret: String = "s3cret", out: String = "bkey"): DataFrame = {
    val f = udf((vs: Seq[String]) =>
      Hashing.hmacSha256Hex(vs.map(soundex).mkString("|"), secret))
    df.withColumn(out, f(array(fields.map(col): _*)))
  }
}
