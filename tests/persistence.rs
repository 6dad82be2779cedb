//! Engine persistence: a saved database reopens from its file and
//! answers the same queries with the same results and realistic cold
//! I/O.

use prix::core::{EngineConfig, PrixEngine};
use prix::datagen::{generate, queries::queries_for, Dataset};

#[test]
fn saved_engine_reopens_and_answers_identically() {
    let dir = std::env::temp_dir().join(format!("prix-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");

    let collection = generate(Dataset::Dblp, 0.025, 42);
    let mut engine = PrixEngine::build(
        collection,
        EngineConfig {
            path: Some(path.clone()),
            ..Default::default()
        },
    )
    .unwrap();

    let queries = queries_for(Dataset::Dblp);
    let mut expected = Vec::new();
    for pq in &queries {
        let q = engine.parse_query(pq.xpath).unwrap();
        expected.push(engine.query(&q).unwrap().matches);
    }
    engine.save().unwrap();
    drop(engine);

    let mut reopened = PrixEngine::reopen(&path, 2000).unwrap();
    assert!(reopened.collection().is_empty(), "trees are not persisted");
    for (pq, exp) in queries.iter().zip(&expected) {
        let q = reopened.parse_query(pq.xpath).unwrap();
        reopened.clear_cache().unwrap();
        let out = reopened.query(&q).unwrap();
        assert_eq!(&out.matches, exp, "{} after reopen", pq.id);
        assert_eq!(out.matches.len() as u64, pq.expected_matches, "{}", pq.id);
        assert!(
            out.io.physical_reads > 0,
            "{}: cold reopen reads pages",
            pq.id
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopening_garbage_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("prix-persist-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("junk.bin");
    std::fs::write(&path, vec![0xABu8; 3 * 8192]).unwrap();
    assert!(PrixEngine::reopen(&path, 64).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn non_default_arrangement_limit_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("prix-persist-limit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    let mut c = prix::xml::Collection::new();
    c.add_xml("<a><b/><c/><d/></a>").unwrap();
    let mut engine = PrixEngine::build(
        c,
        EngineConfig {
            path: Some(path.clone()),
            arrangement_limit: 1,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(engine.arrangement_limit(), 1);
    // Three branches under `a` have 6 arrangements: over the limit.
    let q = engine.parse_query("//a[./b][./c]/d").unwrap();
    assert!(
        engine.snapshot().query_unordered(&q).is_err(),
        "limit 1 must reject"
    );
    engine.save().unwrap();
    drop(engine);
    let mut reopened = PrixEngine::reopen(&path, 64).unwrap();
    assert_eq!(
        reopened.arrangement_limit(),
        1,
        "configured limit was silently replaced by the default on reopen"
    );
    let q = reopened.parse_query("//a[./b][./c]/d").unwrap();
    assert!(
        reopened.snapshot().query_unordered(&q).is_err(),
        "limit survives"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_saves_do_not_grow_the_file() {
    let dir = std::env::temp_dir().join(format!("prix-persist-grow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    let collection = generate(Dataset::Dblp, 0.02, 7);
    let mut engine = PrixEngine::build(
        collection,
        EngineConfig {
            path: Some(path.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    engine.save().unwrap();
    let after_first = std::fs::metadata(&path).unwrap().len();
    for i in 0..8 {
        engine.save().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            len,
            after_first,
            "save #{} of an unchanged engine grew the file ({after_first} -> {len})",
            i + 2
        );
    }
    // The file still reopens correctly after the repeated saves.
    drop(engine);
    let mut reopened = PrixEngine::reopen(&path, 256).unwrap();
    let q = reopened.parse_query("//inproceedings/author").unwrap();
    assert!(reopened.query(&q).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn doctored_catalog_version_is_rejected() {
    let dir = std::env::temp_dir().join(format!("prix-persist-ver-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    let mut c = prix::xml::Collection::new();
    c.add_xml("<a><b/></a>").unwrap();
    let mut engine = PrixEngine::build(
        c,
        EngineConfig {
            path: Some(path.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    engine.save().unwrap();
    drop(engine);
    // Doctor the version field (bytes 4..8 of the catalog page) while
    // leaving the magic intact: a future layout we cannot read.
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(4)).unwrap();
        f.write_all(&99u32.to_le_bytes()).unwrap();
    }
    // With the durable layout the doctored byte is caught one layer
    // below the catalog parser: the page no longer matches its
    // recorded checksum.
    let err = match PrixEngine::reopen(&path, 64) {
        Err(e) => e,
        Ok(_) => panic!("doctored page was accepted"),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("checksum"),
        "durable reopen must flag the corrupted page: {msg}"
    );
    // Strip the sidecars to take the legacy path: now the bytes are
    // trusted and the catalog parser itself must refuse the version.
    std::fs::remove_file(dir.join("db.prix.sum")).unwrap();
    std::fs::remove_file(dir.join("db.prix.wal")).unwrap();
    let err = match PrixEngine::reopen(&path, 64) {
        Err(e) => e,
        Ok(_) => panic!("doctored version was accepted"),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("version 99"),
        "error must name the unknown version: {msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsaved_new_queries_after_save_still_work_in_original() {
    // Saving is not destructive: the original engine keeps working.
    let dir = std::env::temp_dir().join(format!("prix-persist2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.prix");
    let collection = generate(Dataset::Treebank, 0.02, 1);
    let mut engine = PrixEngine::build(
        collection,
        EngineConfig {
            path: Some(path),
            ..Default::default()
        },
    )
    .unwrap();
    engine.save().unwrap();
    let q = engine.parse_query("//S//NP/SYM").unwrap();
    assert_eq!(engine.query(&q).unwrap().matches.len(), 9);
    std::fs::remove_dir_all(&dir).unwrap();
}
