//! The query server's Unix-socket path, in one process: a `Server` bound on
//! a published epoch answers an `F64` `ServeClient` query with exactly the
//! bits `FieldQuery::eval` computes in process, refuses raw query frames
//! carrying a retired precision byte (0 or 2) or a non-finite coordinate
//! with a `TAG_ERROR` that echoes the request's id, keeps answering on that
//! same connection, and drains to an empty queue on `stop()`.

use std::os::unix::net::UnixStream;
use std::sync::Arc;

use barnes_hut::geom::{plummer, PlummerSpec, Vec3};
use barnes_hut::threads::{ThreadConfig, ThreadSim};
use bhut_serve::proto::{
    decode_error, decode_reply, encode_query, TAG_ERROR, TAG_QUERY, TAG_RESULT,
};
use bhut_serve::{
    EpochStore, FieldQuery, FieldSample, KernelPrecision, QueryKind, QueryRequest, QueryTarget,
    ServeClient, ServeConfig, Server,
};
use bhut_wire::{read_frame, write_frame};

fn assert_bitwise(got: &[FieldSample], want: &[FieldSample], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: sample count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            [g.acc.x, g.acc.y, g.acc.z, g.phi].map(f64::to_bits),
            [w.acc.x, w.acc.y, w.acc.z, w.phi].map(f64::to_bits),
            "{ctx}: point {k}"
        );
    }
}

#[test]
fn socket_queries_are_the_in_process_eval_and_the_retired_precision_is_refused() {
    let set = plummer(PlummerSpec { n: 600, seed: 3, ..Default::default() });
    let ps = set.particles;
    let cfg = ThreadConfig::default();
    let store = Arc::new(EpochStore::new());
    store.publish(ThreadSim::new(cfg).build_tree(&ps), ps.clone(), cfg.alpha, cfg.eps);
    let epoch = store.pin().expect("published");

    let dir = std::env::temp_dir().join(format!("bhut-serve-socket-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let serve_cfg = ServeConfig::default();
    let server = Server::bind_unix(&path, Arc::clone(&store), serve_cfg.clone()).unwrap();

    // Particles skipping themselves, and a point outside the cloud.
    let mut targets: Vec<QueryTarget> = ps.iter().step_by(7).map(|p| (p.pos, p.id)).collect();
    targets.push((Vec3::new(3.0, -2.0, 1.0), u32::MAX));
    let mut want = Vec::new();
    let mut engine = FieldQuery::new(serve_cfg.group_size);
    engine.eval(&epoch, &targets, KernelPrecision::F64, &mut want);

    // 1. An `F64` query through the client is the in-process evaluation.
    let mut client = ServeClient::connect_unix(&path).unwrap();
    let reply = client.query(QueryKind::Field, KernelPrecision::F64, &targets).unwrap();
    assert_eq!(reply.generation, epoch.generation);
    assert_bitwise(&reply.samples, &want, "client");

    // 2. A raw frame with precision byte 2 (`mixed_f32`) or 0
    // (`scalar_f64`) gets an error carrying its id.
    let mut raw = UnixStream::connect(&path).unwrap();
    let request = |id| QueryRequest {
        id,
        kind: QueryKind::Field,
        precision: KernelPrecision::F64,
        points: targets.clone(),
    };
    for (id, byte, name) in [(0xabc_def, 2, "mixed_f32"), (0xabc_df0, 0, "scalar_f64")] {
        let mut retired = encode_query(&request(id));
        retired[9] = byte;
        write_frame(&mut raw, TAG_QUERY, &retired).unwrap();
        let (tag, body) = read_frame(&mut raw).unwrap();
        assert_eq!(tag, TAG_ERROR, "precision byte {byte} is refused");
        let (echoed, msg) = decode_error(&body).unwrap();
        assert_eq!(echoed, id, "the error frame echoes the request id");
        assert!(msg.contains(name), "the error names the retired mode: {msg}");
        assert!(msg.contains("send 1 (f64)"), "the error names the mode to send: {msg}");
    }

    // 2b. So does a raw frame with a NaN coordinate, and one with an
    // infinite one, among finite points.
    for (id, bad) in [(0x51, f64::NAN), (0x52, f64::NEG_INFINITY)] {
        let mut req = request(id);
        req.points[3].0.y = bad;
        write_frame(&mut raw, TAG_QUERY, &encode_query(&req)).unwrap();
        let (tag, body) = read_frame(&mut raw).unwrap();
        assert_eq!(tag, TAG_ERROR, "a {bad} coordinate is refused");
        let (echoed, msg) = decode_error(&body).unwrap();
        assert_eq!(echoed, id, "the error frame echoes the request id");
        assert!(msg.contains("non-finite"), "the error names the coordinate: {msg}");
    }

    // 3. The same connection still answers an `F64` query.
    write_frame(&mut raw, TAG_QUERY, &encode_query(&request(7))).unwrap();
    let (tag, body) = read_frame(&mut raw).unwrap();
    assert_eq!(tag, TAG_RESULT);
    let reply = decode_reply(&body).unwrap();
    assert_eq!(reply.id, 7);
    assert_bitwise(&reply.samples, &want, "raw connection after the error");

    // 4. Shutdown drains: nothing left queued, both good queries admitted.
    drop(epoch);
    let fin = server.stop();
    assert_eq!(fin.queue_depth, 0, "queue drained at shutdown");
    assert_eq!((fin.counters.accepted, fin.counters.rejected), (2, 0));
    std::fs::remove_dir_all(&dir).ok();
}
