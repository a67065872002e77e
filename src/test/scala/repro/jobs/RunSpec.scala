package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class RunSpec extends AnyFunSuite {

  test("Run rejects a non-numeric or non-positive n with its usage, naming the value") {
    for (bad <- Seq("ten", "0", "-3", "1.5")) {
      val e = intercept[IllegalArgumentException](Run.main(Array("T2", bad)))
      assert(e.getMessage.contains("usage: Run"), e.getMessage)
      assert(e.getMessage.contains(s"'$bad'"), e.getMessage)
    }
  }
}
