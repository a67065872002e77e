package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec

class PersonGenSpec extends SparkSpec {

  test("entityAttrs deterministic") {
    assert(PersonGen.entityAttrs(5L, 42L) == PersonGen.entityAttrs(5L, 42L))
  }
  test("entityAttrs vary across entities") {
    val attrs = (0L until 200L).map(PersonGen.entityAttrs(_, 42L))
    assert(attrs.map(_._1).distinct.size > 20)   // many first names used
    assert(attrs.map(_._3).distinct.size > 100)  // dobs nearly unique
  }
  test("entityAttrs dob is valid yyyymmdd") {
    for (e <- 0L until 300L) {
      val dob = PersonGen.entityAttrs(e, 42L)._3
      assert(dob.length == 8)
      val (y, m, d) = (dob.take(4).toInt, dob.slice(4, 6).toInt, dob.drop(6).toInt)
      assert(y >= 1930 && y < 2005 && m >= 1 && m <= 12 && d >= 1 && d <= 28)
    }
  }
  test("entityAttrs names come from the pools") {
    for (e <- 0L until 100L) {
      val (f, l, _, g, c, ph) = PersonGen.entityAttrs(e, 42L)
      assert(Names.FirstNames.contains(f))
      assert(Names.LastNames.contains(l))
      assert(Names.Cities.contains(c))
      assert(g == "m" || g == "f")
      assert(ph.length == 8 && ph.forall(_.isDigit))
    }
  }
  test("different seeds give different universes") {
    val a = (0L until 50L).map(PersonGen.entityAttrs(_, 1L))
    val b = (0L until 50L).map(PersonGen.entityAttrs(_, 2L))
    assert(a != b)
  }

  test("database has expected count and schema") {
    val df = PersonGen.database(spark, 1, 0, 100)
    assert(df.count() == 100)
    assert(df.columns.toSeq ==
      Seq("rec_id", "ent_id", "fname", "lname", "dob", "gender", "city", "phone"))
  }
  test("rec_id encodes party tag and ent_id") {
    val rows = PersonGen.database(spark, 3, 10, 20).select("rec_id", "ent_id").collect()
    assert(rows.forall(r => r.getLong(0) == 3000000000L + r.getLong(1)))
  }
  test("clean database matches entityAttrs exactly") {
    val rows = PersonGen.database(spark, 1, 0, 50, corruptionRate = 0.0, seed = 42L)
      .orderBy("ent_id").collect()
    for (r <- rows) {
      val (f, l, dob, g, c, ph) = PersonGen.entityAttrs(r.getLong(1), 42L)
      assert(r.getString(2) == f && r.getString(3) == l && r.getString(4) == dob)
      assert(r.getString(5) == g && r.getString(6) == c && r.getString(7) == ph)
    }
  }
  test("database generation is deterministic across invocations") {
    val a = PersonGen.database(spark, 2, 0, 200, 0.5, 2, 7L).collect().toSeq
    val b = PersonGen.database(spark, 2, 0, 200, 0.5, 2, 7L).collect().toSeq
    assert(a == b)
  }

  test("pair overlap is exactly as requested") {
    val (a, b) = PersonGen.pair(spark, 100, 80, 30, 0.2)
    val shared = a.select("ent_id").intersect(b.select("ent_id")).count()
    assert(shared == 30)
    assert(a.count() == 100 && b.count() == 80)
  }
  test("pair rejects oversized overlap") {
    assertThrows[IllegalArgumentException](PersonGen.pair(spark, 10, 10, 11))
  }
  test("pair party A is uncorrupted") {
    val (a, _) = PersonGen.pair(spark, 50, 50, 25, 1.0, seed = 42L)
    val rows = a.collect()
    assert(rows.forall { r =>
      val (f, l, dob, _, c, _) = PersonGen.entityAttrs(r.getLong(1), 42L)
      r.getString(2) == f && r.getString(3) == l && r.getString(4) == dob && r.getString(6) == c
    })
  }
  test("pair corruption rate holds approximately in B") {
    val (_, b) = PersonGen.pair(spark, 2000, 2000, 1000, 0.4, seed = 42L)
    val corrupted = b.collect().count { r =>
      val (f, l, dob, _, c, _) = PersonGen.entityAttrs(r.getLong(1), 42L)
      !(r.getString(2) == f && r.getString(3) == l && r.getString(4) == dob && r.getString(6) == c)
    }
    val frac = corrupted.toDouble / 2000
    assert(math.abs(frac - 0.4) < 0.05, s"frac=$frac")
  }
  test("truthPairs count equals overlap for clean pair") {
    val (a, b) = PersonGen.pair(spark, 60, 60, 20, 0.0)
    assert(PersonGen.truthPairs(a, b).count() == 20)
  }
  test("truthPairs uses party-qualified rec ids") {
    val (a, b) = PersonGen.pair(spark, 30, 30, 10)
    val rows = PersonGen.truthPairs(a, b).collect()
    assert(rows.forall(r => r.getLong(0) < 2000000000L && r.getLong(1) >= 2000000000L))
  }

  test("parties produce ~inclusionProb sized databases") {
    val ps = PersonGen.parties(spark, 3, 1000, 0.6, 0.2)
    for (p <- ps) {
      val n = p.count()
      assert(math.abs(n - 600) < 80, s"party size $n")
    }
  }
  test("parties hold distinct subsets (not identical)") {
    val ps = PersonGen.parties(spark, 2, 500, 0.5, 0.0)
    val onlyA = ps(0).select("ent_id").except(ps(1).select("ent_id")).count()
    assert(onlyA > 50)
  }
  test("parties requires p >= 2") {
    assertThrows[IllegalArgumentException](PersonGen.parties(spark, 1, 100, 0.5))
  }
}
