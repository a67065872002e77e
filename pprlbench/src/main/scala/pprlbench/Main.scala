package pprlbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The benchmark program: one JVM, one `local[k]` session, one workload, a
  * closed loop with a single client (each run starts when the previous one
  * has finished). Prints an `env` line, a `counts` line and, last, the
  * result object (see `pprlbench/README.md`).
  *
  * {{{
  * Main --workload two_party_20k --seed 42 --seconds 1 --trace 0
  * }}}
  */
object Main {

  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  val ShufflePartitions = 8
  val CodegenCacheEntries = 2000
  val SetupRepeats = 3
  private val MB = 1024.0 * 1024.0

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean)

  private val usage = "usage: Main --workload <name> [--seed n] [--seconds s] [--trace 0|1]; workloads: " +
    Workload.kinds.map(_.name).mkString(", ")

  def parseOpts(args: Array[String]): Opts = {
    require(args.length % 2 == 0, usage)
    val kv = args.grouped(2).map(a => a(0) -> a(1)).toMap
    require((kv.keySet -- Set("--workload", "--seed", "--seconds", "--trace")).isEmpty, usage)
    require(kv.get("--trace").forall(Set("0", "1")), usage)
    Opts(kv.getOrElse("--workload", throw new IllegalArgumentException(usage)),
         kv.get("--seed").map(_.toLong).getOrElse(42L),
         kv.get("--seconds").map(_.toInt).getOrElse(1),
         kv.get("--trace").contains("1"))
  }

  /** Broadcast joins stay off, as in the test suites, so every join takes
    * the shuffle path the ROADMAP's stage analysis is about. The codegen
    * cache is raised from Spark's 100 entries: the multi-party workload
    * builds more distinct plans per run than that, so with the default
    * every run recompiles its generated code.
    */
  def session(): SparkSession = {
    val b = SparkSession.builder.master(s"local[$Cores]").appName("pprlbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.adaptive.enabled", "true")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.codegen.cache.maxEntries", CodegenCacheEntries.toString)
    sys.props.get("pprlbench.localDir").foreach(b.config("spark.local.dir", _))
    b.getOrCreate()
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  /** Total collection time of all JVM garbage collectors so far. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum / 1e3

  /** Let the JVM settle before a timed run: collect garbage, then wait
    * (at most 2 s) until the JIT has compiled nothing for 300 ms, so the
    * run does not share the cores with compiler threads still working
    * off the previous run.
    */
  def settle(): Unit = {
    System.gc()
    val jit = ManagementFactory.getCompilationMXBean
    val deadline = System.nanoTime() + 2000000000L
    var last = -1L
    while (jit.getTotalCompilationTime != last && System.nanoTime() < deadline) {
      last = jit.getTotalCompilationTime
      Thread.sleep(300)
    }
  }

  /** One untraced run: its time, peak task memory and, when `checked`
    * (every run but the warm-ups), its quality and correctness.
    */
  final case class Sample(seconds: Double, peakMb: Double, f1: Double, digest: Long,
                          counts: Seq[(String, Long)], problems: Seq[String])

  def measure(spark: SparkSession, w: Workload, listener: EngineListener,
              in: Seq[DataFrame], checked: Boolean): Sample =
    try {
      listener.reset(spark)
      settle()
      val t0 = System.nanoTime()
      val out = w.runOn(in)
      val s = secondsSince(t0)
      val peak = listener.peakExecutionMemory(spark) / MB
      val jobs = listener.jobs(spark)
      val t1 = System.nanoTime()
      val sample =
        if (checked) Sample(s, peak, w.f1(out), Workload.digest(out.pairs), w.counts(out), w.check(out))
        else Sample(s, peak, 0.0, 0L, Nil, Nil)
      out.release()
      Console.err.println(f"[pprlbench] run $s%.3f s ($jobs Spark jobs), checks ${secondsSince(t1)}%.3f s")
      sample
    } catch {
      case NonFatal(e) => Sample(0, 0, 0, 0, Nil, Seq(s"run threw $e"))
    }

  /** Flags a run whose result digest differs from the first run's. */
  final class DigestCheck {
    private var first: Option[Long] = None
    def apply(d: Long): Seq[String] = first match {
      case None => first = Some(d); Nil
      case Some(f) if f != d => Seq(f"result digest $d%x differs from the first run's $f%x")
      case _ => Nil
    }
  }

  def main(args: Array[String]): Unit = {
    val o = parseOpts(args)
    val kind = Workload.kinds.find(_.name == o.workload)
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${o.workload}; $usage"))

    // set-up (session start, generate and cache the inputs), repeated for
    // a median; every session but the last is stopped again
    val setups = mutable.ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var w: Workload = null
    for (_ <- 1 to (if (o.trace) 1 else SetupRepeats)) {
      if (w != null) { w.release(); spark.stop() }
      val t0 = System.nanoTime()
      spark = session()
      w = kind.setup(spark, o.seed)
      setups += secondsSince(t0)
    }
    val listener = new EngineListener
    spark.sparkContext.addSparkListener(listener)
    val tPrepare = System.nanoTime()
    w.prepare()
    Console.err.println(f"[pprlbench] set-up ${setups.map(x => f"$x%.3f").mkString(" ")} s, references ${secondsSince(tPrepare)}%.3f s")

    val digests = new DigestCheck
    def measured(): Sample = {
      val s = measure(spark, w, listener, w.inputs, checked = true)
      s.copy(problems = s.problems ++ digests(s.digest))
    }
    def report(what: String, problems: Seq[String]): Unit =
      problems.foreach(p => Console.err.println(s"[pprlbench] $what failed: $p"))

    val warm = (1 to kind.warmups).map(_ => measure(spark, w, listener, w.warmupInputs, checked = false))
    warm.foreach(s => report("warm-up run", s.problems))
    require(warm.forall(_.problems.isEmpty), "a warm-up run failed")

    val samples = mutable.ArrayBuffer.empty[Sample]
    var attempted = 0
    var failed = 0
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]

    if (!o.trace) {
      val t0 = System.nanoTime()
      while (attempted == 0 || secondsSince(t0) < o.seconds) {
        val s = measured()
        attempted += 1
        if (s.problems.isEmpty) samples += s else { failed += 1; report("run", s.problems) }
      }
      val runS = median(samples.map(_.seconds).toSeq)
      metrics ++= Seq(
        "run_s" -> (runS, "s"),
        "records_per_s" -> (if (runS > 0) w.records / runS else 0.0, "1/s"),
        "f1" -> (median(samples.map(_.f1).toSeq), "ratio"),
        "peak_exec_mem_mb" -> (median(samples.map(_.peakMb).toSeq), "MB"),
        "setup_s" -> (median(setups.toSeq), "s"))
    } else {
      val base = measured()
      attempted += 1
      if (base.problems.isEmpty) samples += base else { failed += 1; report("untraced run", base.problems) }

      // one traced run: the same work as the untraced run, split into spans
      attempted += 1
      val traced: Map[String, Double] =
        try {
          listener.reset(spark)
          settle()
          val t = new Tracer(spark, listener)
          val r = w.traced(t)
          val problems = r.problems ++ digests(r.digest)
          report("traced run", problems)
          if (problems.nonEmpty) failed += 1
          r.metrics ++ t.engineMetrics ++ Map(
            "engine.gc_s" -> t.gcSeconds,
            "pprl.tracing_overhead_s" -> (t.total - base.seconds))
        } catch {
          case NonFatal(e) => failed += 1; report("traced run", Seq(e.toString)); Map.empty
        }

      val (fa, fb) = w.kernelFilters
      val extra = Map(
        "core.dice_ns_per_pair" -> Kernels.diceNsPerPair(fa, fb),
        "core.dice_expr_ns_per_pair" -> Kernels.diceExprNsPerPair(spark, fa, fb),
        "engine.warmup_s" -> warm.head.seconds,
        "pprl.partition_digest_mismatch" -> w.partitionDigestMismatch.fold(0.0)(if (_) 1.0 else 0.0))
      for ((name, unit) <- Layers.all) {
        val v = extra.orElse(traced).applyOrElse(name, (_: String) => 0.0)
        metrics(name) = (if (v.isNaN || v.isInfinite) 0.0 else v, unit)
      }
    }

    val env = mutable.LinkedHashMap[String, Any](
      "workload" -> o.workload, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "cores" -> Cores, "master" -> spark.sparkContext.master,
      "heap_mb" -> (Runtime.getRuntime.maxMemory / MB).round,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "aqe" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "codegen_cache_entries" -> CodegenCacheEntries,
      "spark" -> spark.version, "java" -> sys.props("java.version"),
      "scala" -> scala.util.Properties.versionNumberString,
      "git_sha" -> sys.props.getOrElse("pprlbench.gitSha", "unknown"),
      "source_sha256" -> sys.props.getOrElse("pprlbench.sourceSha", "unknown"),
      "warmups" -> kind.warmups, "setup_repeats" -> setups.size,
      "warmup_s" -> warm.map(_.seconds), "run_s" -> samples.map(_.seconds).toSeq)
    println(Json(Map("env" -> env)))
    println(Json(Map("counts" -> mutable.LinkedHashMap(
      (samples.headOption.map(_.counts).getOrElse(Nil) :+ ("input_records" -> w.records)): _*))))
    spark.stop()

    println(Json(mutable.LinkedHashMap(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) })))
  }
}

/** Every per-layer metric, with its unit. A workload reports 0 for the
  * layers it does not run.
  */
object Layers {
  val Spans: Seq[String] =
    Seq("encode", "block", "score", "classify", "edges", "clusters", "subset", "rank", "prefix", "verify")

  val all: Seq[(String, String)] = Seq(
    "core.encode_s" -> "s",
    "core.encode_records_per_s" -> "1/s",
    "core.dice_ns_per_pair" -> "ns",
    "core.dice_expr_ns_per_pair" -> "ns",
    "blocking.block_s" -> "s",
    "blocking.key_rows" -> "count",
    "blocking.raw_pairs" -> "count",
    "blocking.candidates" -> "count",
    "blocking.dup_ratio" -> "ratio",
    "blocking.max_bucket_pairs" -> "count",
    "blocking.top20_bucket_share" -> "ratio",
    "blocking.pairs_completeness" -> "ratio",
    "blocking.useful_ratio" -> "ratio",
    "matching.score_s" -> "s",
    "matching.scored_pairs_per_s" -> "1/s",
    "matching.classify_s" -> "s",
    "matching.above_threshold_pairs" -> "count",
    "matching.cluster_s" -> "s",
    "matching.subset_s" -> "s",
    "matching.clusters" -> "count",
    "filtering.rank_s" -> "s",
    "filtering.prefix_s" -> "s",
    "filtering.verify_s" -> "s",
    "filtering.prefix_pairs" -> "count",
    "filtering.verified_pairs" -> "count",
    "filtering.useful_ratio" -> "ratio",
  ) ++ Spans.flatMap(s => Seq(
    s"engine.$s.jobs" -> "count",
    s"engine.$s.tasks" -> "count",
    s"engine.$s.shuffle_write_mb" -> "MB",
    s"engine.$s.shuffle_read_mb" -> "MB",
    s"engine.$s.spill_mb" -> "MB",
    s"engine.$s.task_skew" -> "ratio",
  )) ++ Seq(
    "engine.gc_s" -> "s",
    "engine.warmup_s" -> "s",
    "pprl.tracing_overhead_s" -> "s",
    "pprl.partition_digest_mismatch" -> "count",
  )
}

/** Minimal JSON rendering for the benchmark's own output. */
object Json {
  def apply(v: Any): String = v match {
    case m: collection.Map[_, _] => m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(apply).mkString("[", ",", "]")
    case s: String => quote(s)
    case d: Double => require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d"); d.toString
    case x @ (_: Boolean | _: Int | _: Long) => x.toString
    case other => quote(other.toString)
  }

  private def quote(s: String): String = s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  }.mkString("\"", "", "\"")
}
