package repro.matching

import repro.SparkSpec

class ClusteringSpec extends SparkSpec {
  import spark.implicits._

  private def comps(edges: (Long, Long)*): Map[Long, Long] =
    Clustering.connectedComponents(edges.toDF("id_a", "id_b"))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  test("single edge forms one component") {
    val c = comps((1L, 2L))
    assert(c(1L) == c(2L))
  }
  test("chain collapses into one component") {
    val c = comps((1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L))
    assert(c.values.toSet.size == 1)
    assert(c.values.head == 1L) // min label wins
  }
  test("disjoint components stay apart") {
    val c = comps((1L, 2L), (10L, 11L), (20L, 21L))
    assert(c.values.toSet.size == 3)
    assert(c(10L) == c(11L) && c(10L) != c(1L))
  }
  test("triangle plus tail") {
    val c = comps((1L, 2L), (2L, 3L), (1L, 3L), (3L, 9L))
    assert(Set(c(1L), c(2L), c(3L), c(9L)).size == 1)
  }
  test("long path needs multiple propagation rounds") {
    val edges = (1L until 30L).map(i => (i, i + 1))
    val c = comps(edges: _*)
    assert(c.values.toSet == Set(1L))
  }
  test("two stars merged by a bridge") {
    val star1 = (2L to 6L).map(i => (1L, i))
    val star2 = (12L to 16L).map(i => (11L, i))
    val c = comps(star1 ++ star2 :+ ((6L, 16L)): _*)
    assert(c.values.toSet.size == 1)
  }
  test("vertex count equals distinct ids in edges") {
    val c = comps((1L, 2L), (3L, 4L), (4L, 5L))
    assert(c.keySet == Set(1L, 2L, 3L, 4L, 5L))
  }
  test("clusterPairs enumerates intra-cluster pairs") {
    val comp = Seq((1L, 1L), (2L, 1L), (3L, 1L), (10L, 10L), (11L, 10L))
      .toDF("id", "comp")
    val pairs = Clustering.clusterPairs(comp).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs == Set((1L, 2L), (1L, 3L), (2L, 3L), (10L, 11L)))
  }
  test("clusterPairs of singleton clusters is empty") {
    val comp = Seq((1L, 1L), (2L, 2L)).toDF("id", "comp")
    assert(Clustering.clusterPairs(comp).count() == 0)
  }
  test("components are stable under edge duplication/reversal") {
    val a = comps((1L, 2L), (2L, 3L))
    val b = comps((2L, 1L), (1L, 2L), (3L, 2L), (2L, 3L))
    assert(a == b)
  }
  test("connectedComponents throws when labels still change at maxIter") {
    val path = (1L until 64L).map(i => (i, i + 1)).toDF("id_a", "id_b")
    val e = intercept[IllegalStateException](Clustering.connectedComponents(path, maxIter = 1))
    assert(e.getMessage.contains("maxIter=1") && e.getMessage.contains("labels changed"))
    val c = Clustering.connectedComponents(path).collect().map(_.getLong(1)).toSet
    assert(c == Set(1L)) // the default maxIter converges
  }
}
